package spf

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fibbing.net/fibbing/internal/topo"
)

func fig1() (*topo.Topology, *Graph) {
	t := topo.Fig1(topo.Fig1Opts{})
	return t, FromTopology(t)
}

func TestFig1Distances(t *testing.T) {
	tp, g := fig1()
	tree := Compute(g, tp.MustNode(topo.Fig1A), nil)
	want := map[string]int64{
		"A": 0, "B": 1, "R1": 2, "R2": 2, "R3": 3, "C": 3, "R4": 3,
	}
	for name, d := range want {
		if got := tree.Dist[tp.MustNode(name)]; got != d {
			t.Errorf("dist(A,%s) = %d, want %d", name, got, d)
		}
	}
}

// TestFig1aShortestPaths pins the paper's Figure 1a: the shortest paths from
// A and from B to C overlap along B-R2-C, and are unique.
func TestFig1aShortestPaths(t *testing.T) {
	tp, g := fig1()
	a, b, c := tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1B), tp.MustNode(topo.Fig1C)

	ta := Compute(g, a, nil)
	pa := ta.Paths(c, 0)
	if len(pa) != 1 {
		t.Fatalf("A has %d shortest paths to C, want 1: %v", len(pa), pa)
	}
	if got := FormatPath(tp, pa[0]); got != "A>B>R2>C" {
		t.Fatalf("A's path = %s, want A>B>R2>C", got)
	}

	tb := Compute(g, b, nil)
	pb := tb.Paths(c, 0)
	if len(pb) != 1 {
		t.Fatalf("B has %d shortest paths to C, want 1: %v", len(pb), pb)
	}
	if got := FormatPath(tp, pb[0]); got != "B>R2>C" {
		t.Fatalf("B's path = %s, want B>R2>C", got)
	}
}

func TestNextHopsSimple(t *testing.T) {
	tp, g := fig1()
	a, c := tp.MustNode(topo.Fig1A), tp.MustNode(topo.Fig1C)
	tree := Compute(g, a, nil)
	nhs := tree.NextHops(c)
	if len(nhs) != 1 {
		t.Fatalf("NextHops = %v, want single next hop B", nhs)
	}
	if nhs[0].Node != tp.MustNode(topo.Fig1B) || nhs[0].Paths != 1 {
		t.Fatalf("NextHops = %+v, want B with 1 path", nhs[0])
	}
	if nhs[0].Link == topo.NoLink {
		t.Fatalf("next hop should carry its link ID")
	}
}

func TestNextHopsECMPMultiplicity(t *testing.T) {
	// Diamond with a doubled upper branch:
	//   s -> u1 -> d, s -> u2 -> d, s -> v -> d where v has two parallel
	//   unit links to d. All paths cost 2.
	tp := topo.New()
	s := tp.AddNode("s")
	u1 := tp.AddNode("u1")
	u2 := tp.AddNode("u2")
	v := tp.AddNode("v")
	d := tp.AddNode("d")
	tp.AddLink(s, u1, 1, topo.LinkOpts{})
	tp.AddLink(s, u2, 1, topo.LinkOpts{})
	tp.AddLink(s, v, 1, topo.LinkOpts{})
	tp.AddLink(u1, d, 1, topo.LinkOpts{})
	tp.AddLink(u2, d, 1, topo.LinkOpts{})
	tp.AddLink(v, d, 1, topo.LinkOpts{})

	g := FromTopology(tp)
	// A parallel edge doubles v's paths. The topology cannot hold a second
	// v->d link, but an LSA-built graph can.
	g.AddEdge(v, Edge{To: d, Weight: 1, Link: topo.LinkID(tp.NumLinks())})
	tree := Compute(g, s, nil)
	nhs := tree.NextHops(d)
	if len(nhs) != 3 {
		t.Fatalf("want 3 next hops, got %v", nhs)
	}
	byNode := map[topo.NodeID]int64{}
	for _, nh := range nhs {
		byNode[nh.Node] = nh.Paths
	}
	if byNode[u1] != 1 || byNode[u2] != 1 || byNode[v] != 2 {
		t.Fatalf("multiplicities = %v, want u1:1 u2:1 v:2", byNode)
	}
}

func TestPathsEnumerationAndLimit(t *testing.T) {
	g := NewGraph(4)
	// 0 -> {1,2} -> 3, two equal paths.
	g.AddEdge(0, Edge{To: 1, Weight: 1})
	g.AddEdge(0, Edge{To: 2, Weight: 1})
	g.AddEdge(1, Edge{To: 3, Weight: 1})
	g.AddEdge(2, Edge{To: 3, Weight: 1})
	tree := Compute(g, 0, nil)
	paths := tree.Paths(3, 0)
	if len(paths) != 2 {
		t.Fatalf("want 2 paths, got %v", paths)
	}
	if len(tree.Paths(3, 1)) != 1 {
		t.Fatalf("limit=1 not honoured")
	}
	// Each path must start at src and end at dst.
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Fatalf("malformed path %v", p)
		}
	}
}

func TestUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, Edge{To: 1, Weight: 1})
	tree := Compute(g, 0, nil)
	if tree.Reachable(2) {
		t.Fatalf("node 2 should be unreachable")
	}
	if tree.Dist[2] != Infinity {
		t.Fatalf("unreachable distance should be Infinity")
	}
	if tree.NextHops(2) != nil {
		t.Fatalf("NextHops to unreachable should be nil")
	}
	if tree.Paths(2, 0) != nil {
		t.Fatalf("Paths to unreachable should be nil")
	}
}

func TestSkipExcludesTransit(t *testing.T) {
	// s - h - d (via host h, cost 2) and s - r - r2 - d (cost 3).
	// With h skipped as transit, d must be reached via the router path.
	tp := topo.New()
	s := tp.AddNode("s")
	h := tp.AddHost("h")
	d := tp.AddNode("d")
	r := tp.AddNode("r")
	r2 := tp.AddNode("r2")
	tp.AddLink(s, h, 1, topo.LinkOpts{})
	tp.AddLink(h, d, 1, topo.LinkOpts{})
	tp.AddLink(s, r, 1, topo.LinkOpts{})
	tp.AddLink(r, r2, 1, topo.LinkOpts{})
	tp.AddLink(r2, d, 1, topo.LinkOpts{})
	g := FromTopology(tp)
	skip := func(n topo.NodeID) bool { return tp.Node(n).Host }
	tree := Compute(g, s, skip)
	if tree.Dist[d] != 3 {
		t.Fatalf("dist via host = %d, want 3 (host must not transit)", tree.Dist[d])
	}
	// Host itself still reachable as a leaf.
	if tree.Dist[h] != 1 {
		t.Fatalf("host leaf distance = %d, want 1", tree.Dist[h])
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tp, g := fig1()
	tree := Compute(g, tp.MustNode(topo.Fig1A), nil)
	if err := Validate(g, tree); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	tree.Dist[tp.MustNode(topo.Fig1C)]++ // corrupt
	if err := Validate(g, tree); err == nil {
		t.Fatalf("corrupted tree accepted")
	}
}

// Property: on random graphs, Dijkstra distances satisfy the triangle
// inequality over every edge, and every enumerated path's length equals the
// reported distance.
func TestRandomGraphProperties(t *testing.T) {
	f := func(seed int64) bool {
		n := 14
		rng := rand.New(rand.NewSource(seed))
		tp := topo.RandomConnected(topo.RandomOpts{
			Nodes: n, Degree: 3, MaxWeight: 9, Seed: seed,
		})
		g := FromTopology(tp)
		src := topo.NodeID(rng.Intn(n))
		tree := Compute(g, src, nil)
		if err := Validate(g, tree); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Out[u] {
				if tree.Dist[u] == Infinity {
					continue
				}
				if tree.Dist[e.To] > tree.Dist[u]+e.Weight {
					t.Logf("seed %d: triangle violation at %d->%d", seed, u, e.To)
					return false
				}
			}
		}
		dst := topo.NodeID(rng.Intn(n))
		for _, p := range tree.Paths(dst, 50) {
			var sum int64
			for i := 0; i+1 < len(p); i++ {
				l, ok := tp.FindLink(p[i], p[i+1])
				if !ok {
					t.Logf("seed %d: path uses nonexistent link", seed)
					return false
				}
				sum += l.Weight
			}
			if sum != tree.Dist[dst] {
				t.Logf("seed %d: path length %d != dist %d", seed, sum, tree.Dist[dst])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	_, g := fig1()
	c := g.Clone()
	id := c.AddNode()
	c.AddEdge(0, Edge{To: id, Weight: 1})
	if g.NumNodes() == c.NumNodes() {
		t.Fatalf("clone AddNode affected original")
	}
	if len(g.Out[0]) == len(c.Out[0]) {
		t.Fatalf("clone AddEdge affected original")
	}
}

// TestGraphCloneIsolatesGrowth: the clone's edge lists share one backing
// array, so growing one of them with ReplaceEdges must reallocate that
// list alone and leave the clone's other lists and the original as they
// were.
func TestGraphCloneIsolatesGrowth(t *testing.T) {
	_, g := fig1()
	want := make([][]Edge, len(g.Out))
	for i, es := range g.Out {
		want[i] = slices.Clone(es)
	}
	for u := range g.Out {
		c := g.Clone()
		from := topo.NodeID(u)
		to := topo.NodeID((u + 1) % len(g.Out))
		// Keep the edges from -> to and add two: the list outgrows its cap.
		var edges []Edge
		for _, e := range c.Out[from] {
			if e.To == to {
				edges = append(edges, e)
			}
		}
		edges = append(edges, Edge{Weight: 7, Link: topo.NoLink}, Edge{Weight: 9, Link: topo.NoLink})
		c.ReplaceEdges(from, to, edges)
		for v, es := range c.Out {
			if v != u && !slices.Equal(es, want[v]) {
				t.Fatalf("growing node %d of the clone changed its node %d: %v, want %v", u, v, es, want[v])
			}
		}
		for v, es := range g.Out {
			if !slices.Equal(es, want[v]) {
				t.Fatalf("growing node %d of the clone changed the original's node %d: %v, want %v", u, v, es, want[v])
			}
		}
	}
}

func BenchmarkSPFFig1(b *testing.B) {
	tp, g := fig1()
	src := tp.MustNode(topo.Fig1A)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(g, src, nil)
	}
}

func BenchmarkSPFRandom100(b *testing.B) {
	tp := topo.RandomConnected(topo.RandomOpts{Nodes: 100, Degree: 4, MaxWeight: 20, Seed: 1})
	g := FromTopology(tp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(g, 0, nil)
	}
}
