package fibbing

import (
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// TestReduceLiesAllocations is the cost guard of the incremental
// reduction: one ReduceLies over a fat-tree k=4 pin-all (20 routers, one
// lie group each but the attachment's) allocates the goal and its copy,
// and per trial only the delivery check and the views of the few routers
// the dropped group reaches at their best distance. Re-evaluating the
// whole network on every trial allocates a view map and a next-hop map per
// router per trial, several times the bound.
func TestReduceLiesAllocations(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 4})
	dag := DAG{tp.MustNode("p3e1"): {tp.MustNode("p3a0"): 1, tp.MustNode("p3a1"): 2}}
	ev := NewEvaluator(tp)
	pin, err := ev.AugmentPinAll(topo.FatTreePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := ev.ReduceLies(topo.FatTreePrefixName, pin, dag)
	if err != nil {
		t.Fatal(err)
	}
	if len(reduced.Lies) == 0 || len(reduced.Lies) >= len(pin.Lies) {
		t.Fatalf("reduced %d lies to %d: the trials must both accept and refuse", len(pin.Lies), len(reduced.Lies))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ev.ReduceLies(topo.FatTreePrefixName, pin, dag); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 250.0; allocs > limit {
		t.Fatalf("ReduceLies: %.0f allocations over %d pinned lies, limit %.0f", allocs, len(pin.Lies), limit)
	}
}
