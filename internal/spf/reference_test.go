package spf

import (
	"fmt"
	"math"
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

// computeReference is Compute as it was before the predecessor DAG was
// read off the final distances, kept verbatim as the oracle: it grows one
// predecessor slice per node by append, resetting it on every improvement.
func computeReference(g *Graph, src topo.NodeID, skip func(topo.NodeID) bool) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Src:   src,
		Dist:  make([]int64, n),
		preds: make([][]pred, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Infinity
	}
	t.Dist[src] = 0
	done := make([]bool, n)
	h := &heap{}
	h.push(item{node: src, dist: 0})
	for !h.empty() {
		it := h.pop()
		u := it.node
		if done[u] || it.dist > t.Dist[u] {
			continue
		}
		done[u] = true
		if u != src && skip != nil && skip(u) {
			continue // reached, but never expanded as transit
		}
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			alt := du + e.Weight
			if alt < 0 { // overflow guard
				continue
			}
			switch {
			case alt < t.Dist[e.To]:
				t.Dist[e.To] = alt
				t.preds[e.To] = t.preds[e.To][:0]
				t.preds[e.To] = append(t.preds[e.To], pred{from: u, link: e.Link})
				h.push(item{node: e.To, dist: alt})
			case alt == t.Dist[e.To]:
				t.preds[e.To] = append(t.preds[e.To], pred{from: u, link: e.Link})
			}
		}
	}
	t.canonicalize()
	return t
}

// fromTopologyReference is FromTopology as it was before its edge lists
// were cut from one array, kept verbatim as the oracle: one AddEdge per
// link.
func fromTopologyReference(t *topo.Topology) *Graph {
	g := NewGraph(t.NumNodes())
	for _, l := range t.Links() {
		g.AddEdge(l.From, Edge{To: l.To, Weight: l.Weight, Link: l.ID})
	}
	return g
}

// drawCompute decodes one Compute problem from data: a node count (1 to
// 16), the source, a 16-bit skip mask (it may name the source), then one
// edge per 4 bytes (from, to, weight, link). The weight byte's top two bits
// pick a class: 0 or 1, small, within 63 of MaxInt64 (a path of two
// overflows, one from the source may equal Infinity), or within 63 of
// MaxInt64/2 (a path of two is huge, of three overflows). Links repeat
// across 8 values, so parallel edges, duplicates among them, come up;
// so do self-loops, zero-weight cycles and nodes no edge reaches.
func drawCompute(data []byte) (g *Graph, src topo.NodeID, skip func(topo.NodeID) bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%16
	src = topo.NodeID(next() % n)
	if mask := next() | next()<<8; mask != 0 {
		skip = func(v topo.NodeID) bool { return mask>>(int(v)%16)&1 != 0 }
	}
	g = NewGraph(n)
	for len(data) >= 4 {
		from, to, wb, lb := next()%n, next()%n, next(), next()
		v := int64(wb & 0x3f)
		var w int64
		switch wb >> 6 {
		case 0:
			w = v % 2
		case 1:
			w = 1 + v%8
		case 2:
			w = math.MaxInt64 - v
		default:
			w = math.MaxInt64/2 - v
		}
		g.AddEdge(topo.NodeID(from), Edge{To: topo.NodeID(to), Weight: w, Link: topo.LinkID(lb%8) - 1})
	}
	return g, src, skip
}

// checkCompute holds Compute to the reference on one problem: an Equal
// tree (distances and canonical predecessor lists), each list capped at
// its length.
func checkCompute(sc *Scratch, g *Graph, src topo.NodeID, skip func(topo.NodeID) bool) error {
	got, want := sc.Compute(g, src, skip), computeReference(g, src, skip)
	if !got.Equal(want) {
		return fmt.Errorf("from %d: Compute gives dist %v preds %v, the reference dist %v preds %v",
			src, got.Dist, got.preds, want.Dist, want.preds)
	}
	return capped(got)
}

// capped reports a predecessor list of t with room past its length: an
// append to it would write into the next list cut from the same array.
func capped(t *Tree) error {
	for v, ps := range t.preds {
		if cap(ps) != len(ps) {
			return fmt.Errorf("node %d keeps %d predecessors in a slice of cap %d", v, len(ps), cap(ps))
		}
	}
	return nil
}

// TestComputeMatchesReference holds Compute to computeReference on 20 000
// problems drawn as FuzzCompute draws them (parallel links, zero-weight
// edges and cycles, weights at the overflow guard, skip sets that include
// the source, unreachable parts) and from every source of the topology
// zoo, whose graphs FromTopology must build edge for edge as
// fromTopologyReference does. The drawn problems must reach every case
// that tells the two apart: an edge into a later-settled node that lost
// to another path (the reference's reset), a zero-weight predecessor, a
// skipped node, an edge the guard drops. Every problem, of whatever size,
// runs in one Scratch, so a vector a run fails to reset or to resize
// shows up in the next.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lost, zero, skipped, guarded int
	var sc Scratch // every problem runs in the one scratch, as a domain's routers do
	for i := 0; i < 20000; i++ {
		data := make([]byte, 4+4*rng.Intn(40))
		rng.Read(data)
		g, src, skip := drawCompute(data)
		if err := checkCompute(&sc, g, src, skip); err != nil {
			t.Fatalf("case %d (%x): %v", i, data, err)
		}
		tree := sc.Compute(g, src, skip)
		for u, es := range g.Out {
			du := tree.Dist[u]
			if du == Infinity {
				continue
			}
			if u != int(src) && skip != nil && skip(topo.NodeID(u)) {
				skipped++
				continue
			}
			for _, e := range es {
				switch alt := du + e.Weight; {
				case alt < 0:
					guarded++
				case e.Weight == 0 && alt == tree.Dist[e.To]:
					zero++
				case alt > tree.Dist[e.To] && tree.Dist[e.To] > du:
					lost++
				}
			}
		}
	}
	t.Logf("%d lost edges, %d zero-weight predecessors, %d skipped nodes, %d guarded edges", lost, zero, skipped, guarded)
	if lost < 1000 || zero < 1000 || skipped < 1000 || guarded < 1000 {
		t.Fatal("the drawn problems miss a case")
	}
	for i, tp := range chainZoo() {
		g := FromTopology(tp)
		ref := fromTopologyReference(tp)
		for u := range ref.Out {
			if !slices.Equal(g.Out[u], ref.Out[u]) {
				t.Fatalf("zoo %d node %d: FromTopology lists %v, the reference %v", i, u, g.Out[u], ref.Out[u])
			}
		}
		for src := range g.Out {
			for _, skip := range []func(topo.NodeID) bool{nil, HostSkip(tp)} {
				if err := checkCompute(&sc, g, topo.NodeID(src), skip); err != nil {
					t.Fatalf("zoo %d: %v", i, err)
				}
			}
		}
	}
}

// FuzzCompute holds Compute to computeReference on arbitrary problems
// (drawCompute).
func FuzzCompute(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0x41, 0, 1, 2, 0x42, 1, 0, 2, 0x43, 2})
	f.Add([]byte{4, 1, 0x06, 0, 1, 0, 0x80, 0, 1, 2, 0x00, 3, 2, 2, 0x00, 4, 2, 3, 0xc1, 5, 3, 1, 0xc2, 5})
	f.Add([]byte{5, 2, 0xff, 0xff, 2, 4, 0x40, 0, 2, 4, 0x40, 0, 2, 4, 0x40, 1, 4, 3, 0x01, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		g, src, skip := drawCompute(data)
		if err := checkCompute(new(Scratch), g, src, skip); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFromTopologyIsolatesGrowth: FromTopology's edge lists share one
// backing array, so growing one of them with AddEdge must reallocate that
// list alone and leave the graph's other lists as they were.
func TestFromTopologyIsolatesGrowth(t *testing.T) {
	for i, tp := range chainZoo() {
		want := fromTopologyReference(tp)
		for u := range want.Out {
			g := FromTopology(tp)
			g.AddEdge(topo.NodeID(u), Edge{To: topo.NodeID(u), Weight: 7, Link: topo.NoLink})
			for v, es := range g.Out {
				if v != u && !slices.Equal(es, want.Out[v]) {
					t.Fatalf("zoo %d: growing node %d changed node %d: %v, want %v", i, u, v, es, want.Out[v])
				}
			}
		}
	}
}

// chainZoo is the topology zoo of the reuse-chain and reference tests.
func chainZoo() []*topo.Topology {
	return []*topo.Topology{
		topo.Fig1(topo.Fig1Opts{}),
		topo.Abilene(10e6, time.Millisecond),
		topo.FatTree(topo.FatTreeOpts{K: 4, MaxWeight: 3, Seed: 2}),
		topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6, Chords: 2, Seed: 3}),
		topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: 10e6, MaxWeight: 5, Seed: 4}),
		topo.RandomConnected(topo.RandomOpts{Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: 5}),
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
// into the previous tree. The chain starts from a Compute tree, whose
// lists are cut from one array: each is capped at its length, and the
// tree stays equal to the copy taken before the chain until the chain
// hands it back as storage. Every patch and every next-hop walk of the
// chain runs in one Scratch, which the growing graphs keep resizing; the
// walks must match the reference's from the source to every node.
func TestIncrementalIntoChain(t *testing.T) {
	patches, reused := 0, 0
	var sc Scratch
	var nhs []NextHop
	for i, tp := range chainZoo() {
		rng := rand.New(rand.NewSource(int64(i)))
		g := FromTopology(tp)
		skip := HostSkip(tp)
		if i%2 == 1 {
			skip = nil
		}
		n0 := g.NumNodes()
		cur := Compute(g, 0, skip)
		if err := capped(cur); err != nil {
			t.Fatalf("zoo %d: the first tree: %v", i, err)
		}
		carved, carvedCopy := cur, cloneTree(cur)
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
			if spare == carved {
				carved = nil // handed back as storage: this patch overwrites it
			}
			tree, touched, full := sc.IncrementalInto(spare, g, cur, changes, skip)
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
			for v := range g.NumNodes() {
				nhs = sc.AppendNextHops(nhs[:0], tree, topo.NodeID(v))
				if want := referenceNextHops(tree, topo.NodeID(v)); !slices.Equal(nhs, want) {
					t.Fatalf("zoo %d step %d: next hops to %d are %+v, the reference's %+v", i, step, v, nhs, want)
				}
			}
			if carved != nil && !carved.Equal(carvedCopy) {
				t.Fatalf("zoo %d step %d: the chain changed the Compute tree it started from", i, step)
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
	new(Scratch).IncrementalInto(prev, g, prev, nil, nil)
}
