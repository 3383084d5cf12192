package event

import (
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
	if !s.Cancel(h) {
		t.Fatalf("Cancel failed")
	}
	if s.Cancel(h) {
		t.Fatalf("double Cancel succeeded")
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
