package event

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := NewScheduler()
	var at time.Duration
	s.At(time.Second, func() {
		s.After(500*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 1500*time.Millisecond {
		t.Fatalf("After fired at %v", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic")
		}
	}()
	s.At(500*time.Millisecond, func() {})
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h := s.At(time.Second, func() { fired = true })
	if at, ok := h.When(); !ok || at != time.Second {
		t.Fatalf("When() = %v, %v before Cancel, want 1s, true", at, ok)
	}
	if !s.Cancel(h) {
		t.Fatalf("Cancel failed")
	}
	if s.Cancel(h) {
		t.Fatalf("double Cancel succeeded")
	}
	if _, ok := h.When(); ok {
		t.Fatalf("When() reports a cancelled event as queued")
	}
	s.Run()
	if fired {
		t.Fatalf("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// RunUntil past the last event advances the clock to the target.
	s.RunUntil(10 * time.Second)
	if s.Now() != 10*time.Second || len(fired) != 3 {
		t.Fatalf("clock = %v, fired = %v", s.Now(), fired)
	}
}

func TestStepEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatalf("Step on empty queue returned true")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			s.After(time.Second, chain)
		}
	}
	s.After(time.Second, chain)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock = %v", s.Now())
	}
	if s.Ran() != 5 {
		t.Fatalf("Ran = %d", s.Ran())
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []time.Duration
	tk := s.NewTicker(time.Second, func() {
		ticks = append(ticks, s.Now())
	})
	s.RunUntil(3500 * time.Millisecond)
	tk.Stop()
	s.RunUntil(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if ticks[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tk *Ticker
	tk = s.NewTicker(time.Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic")
		}
	}()
	s.At(time.Second, nil)
}

// TestSchedulingMisusePanics: every way of scheduling a callback rejects
// a nil one, a negative delay and a non-positive ticker period.
func TestSchedulingMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(s *Scheduler){
		"AtCall nil":         func(s *Scheduler) { s.AtCall(time.Second, nil) },
		"After negative":     func(s *Scheduler) { s.After(-1, func() {}) },
		"AfterCall negative": func(s *Scheduler) { s.AfterCall(-1, Func(func() {})) },
		"NewTicker zero":     func(s *Scheduler) { s.NewTicker(0, func() {}) },
		"AtCall in the past": func(s *Scheduler) { s.RunUntil(time.Second); s.AtCall(0, Func(func() {})) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			misuse(NewScheduler())
		})
	}
}

// pendingScan is the O(n) definition Pending replaced: the number of
// queued events, the chain lengths summed over the heap's heads. Since
// Cancel unlinks its event immediately, every queued event is live.
func pendingScan(s *Scheduler) int {
	n := 0
	for _, head := range s.queue {
		for ev := head; ev != nil; ev = ev.next {
			n++
		}
	}
	return n
}

// TestPendingCounterMatchesScan churns the scheduler through random
// schedule/cancel/step sequences and asserts the O(1) live counter always
// equals the O(n) queue scan.
func TestPendingCounterMatchesScan(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(7))
	var handles []Handle
	check := func(op string) {
		t.Helper()
		if got, want := s.Pending(), pendingScan(s); got != want {
			t.Fatalf("after %s: Pending() = %d, scan = %d", op, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			h := s.At(s.Now()+time.Duration(rng.Intn(50))*time.Millisecond, func() {})
			handles = append(handles, h)
			check("At")
		case 2:
			if len(handles) > 0 {
				j := rng.Intn(len(handles))
				s.Cancel(handles[j]) // double-cancel and fired handles included
				check("Cancel")
			}
		case 3:
			s.Step()
			check("Step")
		}
	}
	s.Run()
	check("Run")
	if s.Pending() != 0 {
		t.Fatalf("drained queue has Pending() = %d", s.Pending())
	}
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
// structs — the flood hot path schedules millions of events — and
// neither an append to a chain nor a mid-chain Cancel allocates.
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
		mid := s.After(time.Millisecond, fn) // appended to the chain
		s.After(time.Millisecond, fn)
		s.Cancel(mid)
		s.Step()
		s.Step()
	})
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after each run fired what it scheduled", s.Pending())
	}
	if allocs > 0 {
		t.Fatalf("schedule+step allocates %.1f times, want 0", allocs)
	}
}

// TestCarvedEventsAreDistinct: events carved from the chunks while the
// freelist is empty are P distinct structs, each still queued under its
// own handle until it fires, and they fire in scheduling order.
func TestCarvedEventsAreDistinct(t *testing.T) {
	const p = 3*chunk + 5
	s := NewScheduler()
	var fired []int
	handles := make([]Handle, p)
	seen := make(map[*scheduled]bool, p)
	for i := range handles {
		handles[i] = s.At(time.Duration(i%7), func() { fired = append(fired, i) })
		if seen[handles[i].ev] {
			t.Fatalf("event %d got a struct an earlier pending event holds", i)
		}
		seen[handles[i].ev] = true
	}
	for i, h := range handles {
		if !h.Scheduled() {
			t.Fatalf("event %d is not queued before any event fired", i)
		}
	}
	s.Run()
	if len(fired) != p {
		t.Fatalf("%d events fired, want %d", len(fired), p)
	}
	for i := 1; i < p; i++ {
		a, b := fired[i-1], fired[i]
		if a%7 > b%7 || a%7 == b%7 && a > b {
			t.Fatalf("event %d fired before event %d", a, b)
		}
	}
}

// TestSchedulerAllocsPerChunk holds a scheduler's growth to its chunks:
// reaching P pending events allocates the P/chunk chunks that carve P
// structs and the heap slice's doublings, not one object per event.
// Tickers are carved the same way.
func TestSchedulerAllocsPerChunk(t *testing.T) {
	const p = 4096
	fn := func() {}
	budget := float64(p/chunk + 2*bits.Len(p) + 2)
	got := testing.AllocsPerRun(5, func() {
		s := NewScheduler()
		for i := range p {
			s.At(time.Duration(i), fn)
		}
	})
	t.Logf("%d pending events: %.0f objects", p, got)
	if got > budget {
		t.Errorf("%d pending events allocate %.0f objects, want at most %.0f", p, got, budget)
	}
	got = testing.AllocsPerRun(5, func() {
		s := NewScheduler()
		for range p {
			s.NewTicker(time.Second, fn)
		}
	})
	t.Logf("%d tickers: %.0f objects", p, got)
	if got > 2*budget {
		t.Errorf("%d tickers allocate %.0f objects, want at most %.0f", p, got, 2*budget)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < 100; j++ {
			s.At(time.Duration(j)*time.Millisecond, func() {})
		}
		s.Run()
	}
}
