package spf

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// computeObjectsBudget bounds the heap objects of one Compute in an owned
// Scratch: the tree, Dist, the list headers and the predecessor array,
// whatever the node count. Measured 4 at 100 and at 1 000 nodes; growing
// one predecessor slice per node by append made 108 and 1 096.
const computeObjectsBudget = 5

// TestComputeAllocations: a full SPF run in an owned Scratch, the way
// programs run it, allocates per tree, not per node. ~0.01 s.
func TestComputeAllocations(t *testing.T) {
	var objects []float64
	for _, n := range []int{100, 1000} {
		g := randomGraph(rand.New(rand.NewSource(int64(n))), n)
		var sc Scratch
		got := testing.AllocsPerRun(20, func() { sc.Compute(g, 0, nil) })
		t.Logf("Compute on %d nodes: %v objects", n, got)
		if got > computeObjectsBudget {
			t.Fatalf("Compute on %d nodes allocates %v objects, over the budget of %d", n, got, computeObjectsBudget)
		}
		objects = append(objects, got)
	}
	if objects[0] != objects[1] {
		t.Fatalf("Compute allocates %v objects at 100 nodes but %v at 1 000", objects[0], objects[1])
	}
}

// nextHopsObjectsBudget bounds the heap objects of one next-hop query
// in an owned Scratch on fat-tree k=4 towards a 4-way ECMP destination:
// the result. Measured 1; the reference, two maps per ancestor of dst,
// makes 21, and the bound stays under a quarter of that.
const nextHopsObjectsBudget = 4

// TestNextHopsAllocatesFarLessThanReference: the walk state lives in the
// caller's Scratch, so a query allocates little beyond its result, where
// the reference built two maps per ancestor of dst. ~0.01 s.
func TestNextHopsAllocatesFarLessThanReference(t *testing.T) {
	g := FromTopology(topo.FatTree(topo.FatTreeOpts{K: 4}))
	tree := Compute(g, 0, nil)
	dst := topo.NodeID(0)
	for v := 0; v < g.NumNodes(); v++ {
		if len(tree.NextHops(topo.NodeID(v))) > len(tree.NextHops(dst)) {
			dst = topo.NodeID(v)
		}
	}
	if len(tree.NextHops(dst)) < 2 {
		t.Fatal("want an ECMP destination")
	}
	var sc Scratch
	got := testing.AllocsPerRun(50, func() { sc.AppendNextHops(nil, tree, dst) })
	ref := testing.AllocsPerRun(50, func() { referenceNextHops(tree, dst) })
	if got > nextHopsObjectsBudget {
		t.Fatalf("NextHops allocates %v objects per call, budget %d; the reference %v", got, nextHopsObjectsBudget, ref)
	}
}

// TestFromTopologyAllocations: FromTopology makes the graph, its list
// headers and one edge array, however large the topology. ~0.03 s.
func TestFromTopologyAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tp := range []*topo.Topology{
		topo.Fig1(topo.Fig1Opts{}),
		topo.FatTree(topo.FatTreeOpts{K: 4}),
		topo.FatTree(topo.FatTreeOpts{K: 16}),
		topo.Waxman(topo.WaxmanOpts{Nodes: 200, Capacity: 10e6, MaxWeight: 5, Seed: 4}),
	} {
		if got := testing.AllocsPerRun(20, func() { FromTopology(tp) }); got > 3 {
			t.Fatalf("FromTopology on %d nodes and %d links allocates %v objects, want at most 3", tp.NumNodes(), tp.NumLinks(), got)
		}
	}
}
