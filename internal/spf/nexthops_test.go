package spf

import (
	"reflect"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// referenceNextHops is NextHops as it was before the slice-indexed walk:
// a recursive memo of per-node first-hop -> path-count maps over the
// predecessor DAG. Kept as the oracle for TestNextHopsMatchesReference.
func referenceNextHops(t *Tree, dst topo.NodeID) []NextHop {
	if dst == t.Src || !t.Reachable(dst) {
		return nil
	}
	type agg struct {
		counts map[topo.NodeID]int64 // first-hop node -> #paths
		link   map[topo.NodeID]topo.LinkID
	}
	memo := make(map[topo.NodeID]agg)
	var walk func(v topo.NodeID) agg
	walk = func(v topo.NodeID) agg {
		if a, ok := memo[v]; ok {
			return a
		}
		a := agg{counts: make(map[topo.NodeID]int64), link: make(map[topo.NodeID]topo.LinkID)}
		for _, p := range t.preds[v] {
			if p.from == t.Src {
				a.counts[v] += 1
				a.link[v] = p.link
				continue
			}
			sub := walk(p.from)
			for nh, c := range sub.counts {
				a.counts[nh] += c
				a.link[nh] = sub.link[nh]
			}
		}
		memo[v] = a
		return a
	}
	a := walk(dst)
	out := make([]NextHop, 0, len(a.counts))
	for nh, c := range a.counts {
		out = append(out, NextHop{Node: nh, Link: a.link[nh], Paths: c})
	}
	sortNextHops(out)
	return out
}

// nextHopsZoo is the graph set of the NextHops and Reverse tests: the
// generator families plus a multigraph with parallel links at the first
// hop and deeper, each also with zero-cost leaf nodes grafted on the way
// Fibbing's fakes are (distance ties between a leaf and its parent).
func nextHopsZoo() map[string]*Graph {
	// A topology has one link per ordered pair, so the multigraph is built
	// as an spf.Graph, the shape LSAs can give it: edge by edge, each with
	// its own link ID.
	multi := NewGraph(6)
	var id topo.LinkID
	edge := func(u, v topo.NodeID, w int64) {
		multi.AddEdge(u, Edge{To: v, Weight: w, Link: id})
		id++
	}
	both := func(u, v topo.NodeID, w int64) { edge(u, v, w); edge(v, u, w) }
	const s, a, b, c, d, e = 0, 1, 2, 3, 4, 5
	both(s, a, 1)
	both(s, a, 1)
	both(s, b, 1)
	both(a, c, 2)
	both(b, c, 2)
	both(b, c, 2)
	both(b, c, 5)
	both(c, d, 1)
	both(s, d, 4)
	edge(d, e, 1)
	edge(e, s, 7)

	zoo := map[string]*Graph{
		"fig1":            FromTopology(topo.Fig1(topo.Fig1Opts{})),
		"fattree4":        FromTopology(topo.FatTree(topo.FatTreeOpts{K: 4})),
		"fattree4-jitter": FromTopology(topo.FatTree(topo.FatTreeOpts{K: 4, MaxWeight: 5, Seed: 2})),
		"ring9-chords":    FromTopology(topo.Ring(topo.RingOpts{N: 9, MaxWeight: 4, Seed: 5, Chords: 3})),
		"waxman16":        FromTopology(topo.Waxman(topo.WaxmanOpts{Nodes: 16, MaxWeight: 6, Seed: 13})),
		"abilene":         FromTopology(topo.Abilene(10e6, 0)),
		"multigraph":      multi,
	}
	for name, g := range zoo {
		fakes := g.Clone()
		for u := 0; u < g.NumNodes(); u += 2 {
			for range 2 { // two fakes per host router: tied leaves
				f := fakes.AddNode()
				fakes.AddEdge(topo.NodeID(u), Edge{To: f, Weight: int64(u % 3), Link: topo.NoLink})
			}
		}
		zoo[name+"+fakes"] = fakes
	}
	return zoo
}

// TestNextHopsMatchesReference pins the slice-indexed NextHops to the
// map-of-maps implementation it replaced: same nodes, links, path
// multiplicities and order, from every source to every destination. Every
// walk runs in one Scratch, so a walk that leaves its state dirty
// misleads the next.
func TestNextHopsMatchesReference(t *testing.T) {
	var sc Scratch
	for name, g := range nextHopsZoo() {
		for src := 0; src < g.NumNodes(); src++ {
			tree := sc.Compute(g, topo.NodeID(src), nil)
			for dst := 0; dst < g.NumNodes(); dst++ {
				got, want := sc.AppendNextHops(nil, tree, topo.NodeID(dst)), referenceNextHops(tree, topo.NodeID(dst))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d->%d: got %+v, want %+v", name, src, dst, got, want)
				}
			}
		}
	}
}

// TestReverseTreeIsDestinationRooted: a tree over g.Reverse() rooted at d
// holds every node's distance to d, and its parents of u are exactly u's
// next-hop nodes towards d in u's own forward tree.
func TestReverseTreeIsDestinationRooted(t *testing.T) {
	for name, g := range nextHopsZoo() {
		rev := g.Reverse()
		if rev.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: reverse has %d nodes, want %d", name, rev.NumNodes(), g.NumNodes())
		}
		fwd := make([]*Tree, g.NumNodes())
		for u := range fwd {
			fwd[u] = Compute(g, topo.NodeID(u), nil)
		}
		for d := 0; d < g.NumNodes(); d++ {
			back := Compute(rev, topo.NodeID(d), nil)
			for u := 0; u < g.NumNodes(); u++ {
				if back.Dist[u] != fwd[u].Dist[d] {
					t.Fatalf("%s: dist %d->%d: reverse %d, forward %d", name, u, d, back.Dist[u], fwd[u].Dist[d])
				}
				var want []topo.NodeID
				for _, nh := range fwd[u].NextHops(topo.NodeID(d)) {
					want = append(want, nh.Node)
				}
				if got := back.AppendParents(nil, topo.NodeID(u)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: first hops %d->%d: reverse parents %v, forward next hops %v", name, u, d, got, want)
				}
			}
		}
	}
}
