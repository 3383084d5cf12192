package spf

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/topo"
)

// replaceEdgesReference is Graph.ReplaceEdges as it was before the
// multiset comparison went in place, kept verbatim as the oracle: it
// collects the old edges and a matched vector on every call.
func (g *Graph) replaceEdgesReference(from, to topo.NodeID, edges []Edge) bool {
	var old []Edge
	kept := g.Out[from][:0]
	for _, e := range g.Out[from] {
		if e.To == to {
			old = append(old, e)
		} else {
			kept = append(kept, e)
		}
	}
	for _, e := range edges {
		e.To = to
		kept = append(kept, e)
	}
	g.Out[from] = kept
	if len(old) != len(edges) {
		return true
	}
	// Multiset comparison on (Weight, Link); edge lists here are tiny
	// (parallel links between one node pair).
	matched := make([]bool, len(old))
	for _, e := range edges {
		found := false
		for i, o := range old {
			if !matched[i] && o.Weight == e.Weight && o.Link == e.Link {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			return true
		}
	}
	return false
}

// TestReplaceEdgesMatchesReference holds the in-place ReplaceEdges to the
// oracle on random adjacency lists drawn from a small value range, so
// parallel links, duplicate edges, permuted multisets, near misses and
// empty lists all come up: same report, same resulting adjacency list,
// edge for edge and in order.
func TestReplaceEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edge := func(to topo.NodeID) Edge {
		return Edge{To: to, Weight: 1 + rng.Int63n(3), Link: topo.LinkID(rng.Intn(3)) - 1}
	}
	var changed, same int
	for i := 0; i < 20000; i++ {
		const n = 4
		from, to := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
		out := make([]Edge, rng.Intn(7))
		for j := range out {
			out[j] = edge(topo.NodeID(rng.Intn(n)))
		}
		var edges []Edge
		switch rng.Intn(3) {
		case 0: // a permutation of the current multiset, maybe perturbed
			for _, e := range out {
				if e.To == to {
					edges = append(edges, e)
				}
			}
			rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
			if len(edges) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(edges))
				if rng.Intn(2) == 0 {
					edges[k].Weight++
				} else {
					edges = append(edges, edges[k]) // one duplicate too many
				}
			}
		case 1: // a fresh random multiset, possibly empty
			for range rng.Intn(4) {
				edges = append(edges, edge(topo.NodeID(rng.Intn(n))))
			}
		}
		if rng.Intn(2) == 0 {
			for j := range edges {
				edges[j].To = topo.NodeID(rng.Intn(n)) // ReplaceEdges forces To
			}
		}
		got, want := NewGraph(n), NewGraph(n)
		got.Out[from] = slices.Clone(out)
		want.Out[from] = slices.Clone(out)
		in := slices.Clone(edges)
		g, w := got.ReplaceEdges(from, to, edges), want.replaceEdgesReference(from, to, in)
		if g != w || !slices.Equal(got.Out[from], want.Out[from]) {
			t.Fatalf("case %d: ReplaceEdges(%d, %d, %v) over %v: reported %v, reference %v\n got  %v\n want %v",
				i, from, to, in, out, g, w, got.Out[from], want.Out[from])
		}
		if !slices.Equal(edges, in) {
			t.Fatalf("case %d: ReplaceEdges wrote to its argument", i)
		}
		if g {
			changed++
		} else {
			same++
		}
	}
	if changed < 1000 || same < 1000 {
		t.Fatalf("unbalanced cases: %d changed, %d unchanged", changed, same)
	}
	g := NewGraph(2)
	g.AddEdge(0, Edge{To: 1, Weight: 1, Link: 3})
	g.AddEdge(0, Edge{To: 1, Weight: 1, Link: 3})
	g.AddEdge(0, Edge{To: 0, Weight: 1, Link: 4})
	if got := testing.AllocsPerRun(100, func() {
		g.ReplaceEdges(0, 1, []Edge{{Weight: 1, Link: 3}, {Weight: 1, Link: 3}})
	}); got != 0 {
		t.Fatalf("ReplaceEdges of an unchanged pair allocates %v objects", got)
	}
}

// cloneTree deep-copies the routing state of t (distances and every
// predecessor list), sharing nothing with it.
func cloneTree(t *Tree) *Tree {
	c := &Tree{Src: t.Src, Dist: slices.Clone(t.Dist), preds: make([][]pred, len(t.preds))}
	for v, ps := range t.preds {
		c.preds[v] = slices.Clone(ps)
	}
	return c
}

// TestIncrementalIntoChain runs the reuse chain a router runs: every patch
// is written into the tree the current one replaced, over zoo graphs that
// gain leaf nodes as they go. After every patch the result equals a full
// Dijkstra and a fresh-storage Incremental (touched set and fallback
// included), and prev still equals the deep copy taken before the patch,
// so neither the reused storage nor the shared predecessor lists leak
// into the previous tree.
func TestIncrementalIntoChain(t *testing.T) {
	zoo := []*topo.Topology{
		topo.Fig1(topo.Fig1Opts{}),
		topo.Abilene(10e6, time.Millisecond),
		topo.FatTree(topo.FatTreeOpts{K: 4, MaxWeight: 3, Seed: 2}),
		topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6, Chords: 2, Seed: 3}),
		topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: 10e6, MaxWeight: 5, Seed: 4}),
		topo.RandomConnected(topo.RandomOpts{Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: 5}),
	}
	patches, reused := 0, 0
	for i, tp := range zoo {
		rng := rand.New(rand.NewSource(int64(i)))
		g := FromTopology(tp)
		skip := HostSkip(tp)
		if i%2 == 1 {
			skip = nil
		}
		n0 := g.NumNodes()
		cur := Compute(g, 0, skip)
		var spare *Tree
		for step := 0; step < 60; step++ {
			changes := mutate(rng, g)
			if step%3 == 0 { // keep growing, as fakes do between compactions
				attach := topo.NodeID(rng.Intn(g.NumNodes()))
				leaf := g.AddNode()
				g.AddEdge(attach, Edge{To: leaf, Weight: rng.Int63n(4), Link: topo.NoLink})
				changes = append(changes, GraphChange{From: attach, To: leaf})
			}
			before := cloneTree(cur)
			fresh, freshTouched, freshFull := Incremental(g, cur, changes, skip)
			tree, touched, full := IncrementalInto(spare, g, cur, changes, skip)
			if want := Compute(g, 0, skip); !tree.Equal(want) {
				t.Fatalf("zoo %d step %d: patched tree diverges from Compute (changes %v)", i, step, changes)
			}
			if !tree.Equal(fresh) || !slices.Equal(touched, freshTouched) || full != freshFull {
				t.Fatalf("zoo %d step %d: reuse changed the result: touched %v vs %v, full %v vs %v",
					i, step, touched, freshTouched, full, freshFull)
			}
			if !before.Equal(cur) {
				t.Fatalf("zoo %d step %d: the patch mutated prev", i, step)
			}
			patches++
			if spare != nil && tree == spare {
				reused++
			}
			if tree != cur {
				spare, cur = cur, tree
			}
		}
		if g.NumNodes() < n0+20 {
			t.Fatalf("zoo %d: graph grew from %d to only %d nodes", i, n0, g.NumNodes())
		}
	}
	t.Logf("%d patches, %d written into the replaced tree", patches, reused)
	if patches < 200 || reused < patches/2 {
		t.Fatalf("%d patches, %d into reused storage: the chain does not exercise reuse", patches, reused)
	}
}

// TestIncrementalIntoRejectsPrev: writing a patch over its own input
// would destroy the tree it reads.
func TestIncrementalIntoRejectsPrev(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 8)
	prev := Compute(g, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("IncrementalInto(prev, …, prev, …) did not panic")
		}
	}()
	IncrementalInto(prev, g, prev, nil, nil)
}
