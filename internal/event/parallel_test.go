package event

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelBatchCommitOrder schedules a mix of parallel and plain
// events at one instant and asserts the observable order matches the
// sequential core exactly: computes may run in any order, but commits and
// plain events fire in FIFO scheduling order.
func TestParallelBatchCommitOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := NewScheduler()
			s.SetWorkers(workers)
			var order []string
			for i := 0; i < 5; i++ {
				i := i
				s.AtParallel(time.Second, func() {}, func() {
					order = append(order, fmt.Sprintf("p%d", i))
				})
			}
			s.At(time.Second, func() { order = append(order, "plain") })
			for i := 5; i < 8; i++ {
				i := i
				s.AtParallel(time.Second, func() {}, func() {
					order = append(order, fmt.Sprintf("p%d", i))
				})
			}
			s.Run()
			want := "[p0 p1 p2 p3 p4 plain p5 p6 p7]"
			if got := fmt.Sprint(order); got != want {
				t.Fatalf("commit order = %v, want %v", got, want)
			}
			if s.Ran() != 9 {
				t.Fatalf("Ran() = %d, want 9", s.Ran())
			}
		})
	}
}

// TestParallelComputesRunConcurrently proves the fan-out is real: with a
// pool of 4, four compute phases block until all four have started, which
// deadlocks unless they run on distinct goroutines. Under GOMAXPROCS=1
// the goroutines still interleave (the spin loop yields via atomic ops and
// Gosched is not required because the barrier uses channels).
func TestParallelComputesRunConcurrently(t *testing.T) {
	s := NewScheduler()
	s.SetWorkers(4)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var commits atomic.Int32
	for i := 0; i < 4; i++ {
		s.AtParallel(0, func() {
			started <- struct{}{}
			<-release
		}, func() { commits.Add(1) })
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 4; i++ {
			<-started
		}
		close(release)
		close(done)
	}()
	s.Run()
	<-done
	if commits.Load() != 4 {
		t.Fatalf("commits = %d, want 4", commits.Load())
	}
}

// TestParallelBatchBoundary: a non-parallel event between two parallel
// runs at the same instant splits the batch, so the plain event's effects
// are visible to the later computes exactly as in the sequential core.
func TestParallelBatchBoundary(t *testing.T) {
	s := NewScheduler()
	s.SetWorkers(4)
	shared := 0
	var seen [2]int
	s.AtParallel(0, func() { seen[0] = shared }, nil)
	s.At(0, func() { shared = 42 })
	s.AtParallel(0, func() { seen[1] = shared }, nil)
	s.Run()
	if seen[0] != 0 || seen[1] != 42 {
		t.Fatalf("seen = %v, want [0 42]", seen)
	}
	if st := s.Parallel(); st.Batches != 0 {
		t.Fatalf("stats = %+v, want two solo parallel events", st)
	}
}

// TestParallelStats checks the batch telemetry counters.
func TestParallelStats(t *testing.T) {
	s := NewScheduler()
	s.SetWorkers(3)
	for i := 0; i < 5; i++ {
		s.AtParallel(time.Second, func() {}, nil)
	}
	s.AtParallel(2*time.Second, func() {}, nil)
	s.Run()
	st := s.Parallel()
	if st.Batches != 1 || st.MaxBatch != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestParallelPanicPropagates: a panic in a compute phase must surface on
// the scheduler goroutine, not kill a worker silently.
func TestParallelPanicPropagates(t *testing.T) {
	s := NewScheduler()
	s.SetWorkers(2)
	s.AtParallel(0, func() { panic("boom") }, nil)
	s.AtParallel(0, func() {}, nil)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recover = %v, want boom", r)
		}
	}()
	s.Run()
	t.Fatalf("no panic")
}

// TestCancelRemovesFromHeap asserts the cancelled-event leak is gone: the
// queue length shrinks immediately on Cancel instead of retaining dead
// entries until their instant is reached.
func TestCancelRemovesFromHeap(t *testing.T) {
	s := NewScheduler()
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, s.At(time.Duration(i+1)*time.Hour, func() {}))
	}
	for i, h := range hs {
		if i%2 == 0 {
			if !s.Cancel(h) {
				t.Fatalf("cancel %d failed", i)
			}
		}
	}
	if len(s.queue) != 50 {
		t.Fatalf("queue holds %d entries after cancelling half, want 50", len(s.queue))
	}
	if s.Pending() != 50 {
		t.Fatalf("Pending() = %d, want 50", s.Pending())
	}
	// Double-cancel and cancel-after-fire stay no-ops with recycled
	// event structs: the handle's seq guard must reject stale structs.
	if s.Cancel(hs[0]) {
		t.Fatal("double cancel returned true")
	}
	h := s.At(time.Minute, func() {})
	for s.Step() {
	}
	if s.Cancel(h) {
		t.Fatal("cancel after fire returned true")
	}
}

// TestStaleHandleAfterReuse: firing an event recycles its struct; a new
// event reusing it must not be cancellable through the old handle.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := NewScheduler()
	stale := s.At(0, func() {})
	s.Step() // fires, struct goes to the freelist
	ran := false
	s.At(time.Second, func() { ran = true }) // reuses the struct
	if s.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled event")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled event did not fire")
	}
}

// TestTickerTickAllocFree: after warm-up, each tick re-arms without
// allocating (the hoisted closure plus the event-struct freelist).
func TestTickerTickAllocFree(t *testing.T) {
	s := NewScheduler()
	tick := 0
	s.NewTicker(time.Second, func() { tick++ })
	s.RunUntil(10 * time.Second) // warm the freelist and heap capacity
	allocs := testing.AllocsPerRun(100, func() {
		s.RunUntil(s.Now() + time.Second)
	})
	if allocs > 0 {
		t.Fatalf("ticker tick allocates %.1f times per period, want 0", allocs)
	}
	if tick < 100 {
		t.Fatalf("ticks = %d", tick)
	}
}

// TestSchedulingAllocFree: At on a warmed scheduler reuses freelist
// structs — the flood hot path schedules millions of events.
func TestSchedulingAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 100; i++ {
		s.At(time.Duration(i), fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.After(time.Millisecond, fn)
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule+step allocates %.1f times, want 0", allocs)
	}
}

// TestRunUntilBatch: RunUntil must not run a batch whose instant is past
// the horizon, and leaves the clock at exactly t.
func TestRunUntilBatch(t *testing.T) {
	s := NewScheduler()
	s.SetWorkers(4)
	ran := 0
	for i := 0; i < 3; i++ {
		s.AtParallel(time.Second, func() {}, func() { ran++ })
		s.AtParallel(3*time.Second, func() {}, func() { ran++ })
	}
	s.RunUntil(2 * time.Second)
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
	s.RunUntil(3 * time.Second)
	if ran != 6 {
		t.Fatalf("ran = %d, want 6", ran)
	}
}

// TestParallelDeterminismUnderLoad runs the same randomised parallel
// workload with 1 and 8 workers and requires identical commit traces and
// telemetry-relevant counters. Run with -race this also exercises the
// worker pool for data races on the scheduler's own state.
func TestParallelDeterminismUnderLoad(t *testing.T) {
	trace := func(workers int) (string, uint64) {
		s := NewScheduler()
		s.SetWorkers(workers)
		var log []string
		// A self-expanding workload: each commit schedules more work,
		// some parallel, some not, some cancelled.
		var grow func(depth, id int)
		grow = func(depth, id int) {
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				i, id := i, id
				local := 0
				s.AfterParallel(time.Duration(i%2+1)*time.Millisecond,
					func() { local = id*10 + i },
					func() {
						log = append(log, fmt.Sprintf("c%d.%d=%d", depth, i, local))
						grow(depth-1, id+i)
					})
			}
			h := s.After(time.Millisecond, func() { log = append(log, "never") })
			s.Cancel(h)
			s.After(2*time.Millisecond, func() { log = append(log, fmt.Sprintf("plain%d", depth)) })
		}
		grow(4, 1)
		s.Run()
		return fmt.Sprint(log), s.Ran()
	}
	seqLog, seqRan := trace(1)
	parLog, parRan := trace(8)
	if seqLog != parLog {
		t.Fatalf("traces differ:\nseq: %s\npar: %s", seqLog, parLog)
	}
	if seqRan != parRan {
		t.Fatalf("Ran() differs: %d vs %d", seqRan, parRan)
	}
}
