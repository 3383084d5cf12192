//go:build !race

package ospf

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// spfObjectsBudget bounds the heap objects of one incremental SPF run on a
// fat-tree k=8 weight flip, averaged over the 640 runs of four flips and
// their restores. Measured 15.8 per run (10 104 objects); the delta
// pipeline that allocated a fresh tree, edge lists, maps and announcer
// slices per run made 128.2. A fresh tree alone (Dist, preds, CSR and
// touched list per patch) makes 18.8 and trips the guard.
const spfObjectsBudget = 17

// TestIncrementalRunAllocations is the absolute twin of
// TestIncrementalRunCostIndependentOfPrefixCount (index_test.go): on the
// igp-churn fabric, a run allocates what it hands on — the predecessor
// lists its patch rewrote, the changed routes, the diff and the new table —
// and none of its working state: the tree it patches into, the replay's
// edge lists, the announcer resolution and the touched set are reused.
// The race detector drops sync.Pool items at random, so this file is not
// built under -race.
func TestIncrementalRunAllocations(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	sched := event.NewScheduler()
	sched.SetWorkers(1) // SPF runs one at a time, on this goroutine
	d := NewDomain(tp, sched, Config{})
	d.Start()
	var core topo.Link
	for _, l := range tp.Links() {
		if !tp.Node(l.From).Host && !tp.Node(l.To).Host {
			core = l
			break
		}
	}
	flip := func(w int64) {
		t.Helper()
		if err := d.SetLinkWeight(core.From, core.To, w); err != nil {
			t.Fatal(err)
		}
		if _, err := d.RunUntilConverged(sched.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	flip(core.Weight)        // cold convergence
	for i := 0; i < 2; i++ { // every router's spare tree and scratch in place
		flip(core.Weight + 1)
		flip(core.Weight)
	}

	// No collection inside the measured window: one would empty spf's
	// scratch pool and charge its refill to whichever run came next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := d.Stats()
	var ms runtime.MemStats
	var objects uint64
	for _, r := range d.Routers() {
		compute := r.spfCompute
		r.spfCompute = func() {
			runtime.ReadMemStats(&ms)
			start := ms.Mallocs
			compute()
			runtime.ReadMemStats(&ms)
			objects += ms.Mallocs - start
		}
	}
	for i := 0; i < 4; i++ {
		flip(core.Weight + 1)
		flip(core.Weight)
	}
	after := d.Stats()
	if after.SPFFullRuns != before.SPFFullRuns {
		t.Fatalf("%d full SPF runs, want none", after.SPFFullRuns-before.SPFFullRuns)
	}
	assertFIBsMatchFull(t, "after the flips", d)
	runs := after.SPFIncrementalRuns - before.SPFIncrementalRuns
	perRun := float64(objects) / float64(runs)
	t.Logf("%d incremental runs, %d objects, %.2f per run", runs, objects, perRun)
	if perRun > spfObjectsBudget {
		t.Fatalf("an incremental SPF run allocates %.2f objects, over the budget of %v", perRun, spfObjectsBudget)
	}
}
