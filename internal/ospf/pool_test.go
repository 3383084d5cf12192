package ospf

import (
	"runtime"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// TestSPFPoolAllocsNoWorseThanSequential holds the batch-tick SPF worker
// pool to its allocation contract: fanning the debounced recomputes of a
// fat-tree k=8 fabric over four workers may not cost more than 5% extra
// heap objects per weight flip than the sequential core. Output equality
// across widths is TestParallelCoreDeterminism's job; this is the other
// half — the pool must not buy wall-clock with garbage.
func TestSPFPoolAllocsNoWorseThanSequential(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	sched := event.NewScheduler()
	dom := NewDomain(tp, sched, Config{})
	dom.Start()
	if _, err := dom.RunUntilConverged(time.Minute); err != nil {
		t.Fatal(err)
	}
	var link topo.Link
	for _, l := range tp.Links() {
		if !tp.Node(l.From).Host && !tp.Node(l.To).Host {
			link = l
			break
		}
	}
	// One step flips the link's weight, re-converges, restores it and
	// re-converges: the change floods, then every switch's debounced SPF
	// recompute lands on the same instants — the pool's batches — and the
	// domain is back in its converged state for the next step.
	step := func() {
		t.Helper()
		for _, w := range [2]int64{link.Weight + 1, link.Weight} {
			if err := dom.SetLinkWeight(link.From, link.To, w); err != nil {
				t.Fatal(err)
			}
			if _, err := dom.RunUntilConverged(sched.Now() + time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if len(dom.Errors) > 0 {
			t.Fatalf("protocol errors: %v", dom.Errors)
		}
	}
	const steps = 5
	mallocsPerStep := func(workers int) float64 {
		sched.SetWorkers(workers)
		step() // warm the scratch pools and flood-buffer freelist at this width
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / steps
	}

	seq := mallocsPerStep(1)
	batches := sched.Parallel().Batches
	par := mallocsPerStep(4)
	if sched.Parallel().Batches == batches {
		t.Fatal("pool enabled but no parallel batch executed")
	}
	t.Logf("allocs per flip+restore: width 1 = %.0f, width 4 = %.0f (%+.2f%%)", seq, par, 100*(par/seq-1))
	if par > 1.05*seq {
		t.Fatalf("width 4 allocates %.0f objects per step, width 1 %.0f: over the 1.05x bound", par, seq)
	}
}
