package bfd

import (
	"runtime"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// TestTransitionTable exercises every (local, remote) cell of the RFC
// 5880 three-state machine.
func TestTransitionTable(t *testing.T) {
	cases := []struct {
		local, remote, want State
	}{
		// Down: a Down peer means it does not hear us yet -> Init; an
		// Init peer already hears us -> Up; an Up peer without a
		// handshake is stale -> stay Down.
		{StateDown, StateDown, StateInit},
		{StateDown, StateInit, StateUp},
		{StateDown, StateUp, StateDown},
		// Init: any evidence the peer hears us -> Up; a Down peer keeps
		// us waiting.
		{StateInit, StateDown, StateInit},
		{StateInit, StateInit, StateUp},
		{StateInit, StateUp, StateUp},
		// Up: only a Down peer (it lost us) tears the session down.
		{StateUp, StateDown, StateDown},
		{StateUp, StateInit, StateUp},
		{StateUp, StateUp, StateUp},
	}
	for _, c := range cases {
		if got := transition(c.local, c.remote); got != c.want {
			t.Errorf("transition(%v, %v) = %v, want %v", c.local, c.remote, got, c.want)
		}
	}
}

// pairTopo builds two routers joined by one symmetric link.
func pairTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 1e6, Delay: time.Millisecond})
	return tp
}

// harness wires an engine and records the notifications.
type harness struct {
	tp    *topo.Topology
	sched *event.Scheduler
	eng   *Engine
	downs []time.Duration
	ups   []time.Duration
}

func newHarness(t *testing.T, tp *topo.Topology, cfg Config) *harness {
	t.Helper()
	h := newIdleHarness(tp, cfg)
	h.eng.Start()
	return h
}

// newIdleHarness is newHarness without Start: no session, no hello.
func newIdleHarness(tp *topo.Topology, cfg Config) *harness {
	h := &harness{tp: tp, sched: event.NewScheduler()}
	h.eng = New(tp, h.sched, cfg)
	h.eng.OnDown = func(topo.Link) { h.downs = append(h.downs, h.sched.Now()) }
	h.eng.OnUp = func(topo.Link) { h.ups = append(h.ups, h.sched.Now()) }
	return h
}

// setLink fails or heals both directions of the harness link pair.
func (h *harness) setLink(l topo.Link, up bool) { h.eng.SetLinkState(l.ID, up) }

func TestSessionEstablishAndDetect(t *testing.T) {
	tp := pairTopo(t)
	h := newHarness(t, tp, Config{})
	sess, ok := h.eng.Session(0)
	if !ok {
		t.Fatalf("no session on link 0")
	}

	// Establishment: both endpoints Up within a few tx intervals; the
	// initial handshake is not announced.
	h.sched.RunUntil(1 * time.Second)
	if !sess.Up() {
		a, b := sess.States()
		t.Fatalf("session not up after 1s (states %v/%v)", a, b)
	}
	if len(h.ups) != 0 || len(h.downs) != 0 {
		t.Fatalf("initial establishment must be silent, got ups=%v downs=%v", h.ups, h.downs)
	}

	// Failure: exactly one OnDown, within the engine's detection time
	// (plus one tx interval of phase slack).
	failAt := 2 * time.Second
	h.sched.At(failAt, func() { h.setLink(tp.Link(0), false) })
	h.sched.RunUntil(5 * time.Second)
	if len(h.downs) != 1 {
		t.Fatalf("want exactly 1 down event, got %d", len(h.downs))
	}
	deadline := failAt + h.eng.DetectTime() + txInterval
	if h.downs[0] > deadline {
		t.Fatalf("detection at %v, want <= %v", h.downs[0], deadline)
	}
	if sess.Up() {
		t.Fatalf("session still up after failure")
	}

	// Heal: one OnUp (a single flap's penalty stays below suppressAt).
	h.sched.At(6*time.Second, func() { h.setLink(tp.Link(0), true) })
	h.sched.RunUntil(8 * time.Second)
	if len(h.ups) != 1 {
		t.Fatalf("want exactly 1 up event, got %d", len(h.ups))
	}
	if !sess.Up() {
		t.Fatalf("session not re-established")
	}
}

// TestDetectTime: a failed link is announced down one detection time
// (detectMult tx intervals, 150 ms) after the last hello heard, so at
// most one detection time after the failure and at least one detection
// time less one tx interval (the widest gap between hellos) after it.
func TestDetectTime(t *testing.T) {
	if got, want := New(pairTopo(t), event.NewScheduler(), Config{}).DetectTime(), 150*time.Millisecond; got != want {
		t.Fatalf("detect time %v, want %v", got, want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		tp := pairTopo(t)
		h := newHarness(t, tp, Config{Seed: seed})
		failAt := 2*time.Second + time.Duration(seed)*7*time.Millisecond
		h.sched.At(failAt, func() { h.setLink(tp.Link(0), false) })
		h.sched.RunUntil(3 * time.Second)
		if len(h.downs) != 1 {
			t.Fatalf("seed %d: %d down events, want 1", seed, len(h.downs))
		}
		if d := h.downs[0] - failAt; d > h.eng.DetectTime() || d < h.eng.DetectTime()-txInterval {
			t.Fatalf("seed %d: down %v after the failure, want within (%v, %v]",
				seed, d, h.eng.DetectTime()-txInterval, h.eng.DetectTime())
		}
	}
}

// TestFlapDamping drives rapid flaps: every down is announced, but the
// accumulated penalty suppresses the intermediate ups until it decays.
func TestFlapDamping(t *testing.T) {
	tp := pairTopo(t)
	h := newHarness(t, tp, Config{})
	h.sched.RunUntil(1 * time.Second)

	// Three rapid flaps, 700ms apart: penalties stack well past
	// suppressAt (2000) long before the 8s half-life decays them.
	for i := 0; i < 3; i++ {
		at := 2*time.Second + time.Duration(i)*700*time.Millisecond
		h.sched.At(at, func() { h.setLink(tp.Link(0), false) })
		h.sched.At(at+350*time.Millisecond, func() { h.setLink(tp.Link(0), true) })
	}
	h.sched.RunUntil(4 * time.Second)

	if len(h.downs) != 3 {
		t.Fatalf("downs are never suppressed: want 3, got %d", len(h.downs))
	}
	// The first two re-ups (decayed penalty ≈1000 then ≈1940, both below
	// suppressAt 2000) are announced; the third (≈2830) is suppressed.
	if len(h.ups) != 2 {
		t.Fatalf("want 2 announced ups mid-flap, got %d", len(h.ups))
	}
	sess, _ := h.eng.Session(0)
	if !sess.Up() || !sess.Suppressed() {
		t.Fatalf("session should be up but damped (up=%v suppressed=%v)", sess.Up(), sess.Suppressed())
	}
	if h.eng.Stats().SuppressedUps == 0 {
		t.Fatalf("stats should count suppressed ups")
	}

	// Decay: once the penalty falls below reuseBelow the withheld up is
	// announced. Penalty peaked ≈ 2830 ⇒ below 750 within ~2 half-lives
	// (16s); allow slack.
	h.sched.RunUntil(40 * time.Second)
	if len(h.ups) != 3 {
		t.Fatalf("damped up not released after decay: ups=%d", len(h.ups))
	}
	if sess.Suppressed() {
		t.Fatalf("session still suppressed after decay")
	}
}

// TestDampedUpThenDown: a down during suppression must not be announced
// again (the consumer already believes the link is down), and the
// pending up must be dropped.
func TestDampedUpThenDown(t *testing.T) {
	tp := pairTopo(t)
	h := newHarness(t, tp, Config{})
	h.sched.RunUntil(1 * time.Second)

	for i := 0; i < 3; i++ {
		at := 2*time.Second + time.Duration(i)*700*time.Millisecond
		h.sched.At(at, func() { h.setLink(tp.Link(0), false) })
		h.sched.At(at+350*time.Millisecond, func() { h.setLink(tp.Link(0), true) })
	}
	h.sched.RunUntil(4 * time.Second)
	sess, _ := h.eng.Session(0)
	if !sess.Suppressed() {
		t.Fatalf("precondition: session should be damped")
	}
	downsBefore := len(h.downs)

	// Fail for good while the up is withheld.
	h.sched.At(4500*time.Millisecond, func() { h.setLink(tp.Link(0), false) })
	h.sched.RunUntil(60 * time.Second)
	if len(h.downs) != downsBefore {
		t.Fatalf("down during suppression must stay silent: %d -> %d", downsBefore, len(h.downs))
	}
	if len(h.ups) != 2 {
		t.Fatalf("withheld up must be dropped, got ups=%d", len(h.ups))
	}
	if sess.Up() || sess.Suppressed() {
		t.Fatalf("session should be plainly down (up=%v suppressed=%v)", sess.Up(), sess.Suppressed())
	}
}

// TestDeterminism: two engines with the same seed produce identical
// packet counts and event timings.
func TestDeterminism(t *testing.T) {
	run := func() (Stats, []time.Duration) {
		tp := pairTopo(t)
		h := newHarness(t, tp, Config{Seed: 7})
		h.sched.At(2*time.Second, func() { h.setLink(tp.Link(0), false) })
		h.sched.At(3*time.Second, func() { h.setLink(tp.Link(0), true) })
		h.sched.RunUntil(5 * time.Second)
		return h.eng.Stats(), append(h.downs, h.ups...)
	}
	s1, ev1 := run()
	s2, ev2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts diverged: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d at %v vs %v", i, ev1[i], ev2[i])
		}
	}
}

// TestHostLinksSkipped: sessions exist only on router-router links.
func TestHostLinksSkipped(t *testing.T) {
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	hN := tp.AddHost("h")
	tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 1e6})
	tp.AddLink(a, hN, 1, topo.LinkOpts{})
	h := newHarness(t, tp, Config{})
	if h.eng.Stats().Sessions != 1 {
		t.Fatalf("want 1 session (router-router only), got %d", h.eng.Stats().Sessions)
	}
	if _, ok := h.eng.Session(2); ok {
		t.Fatalf("host link must have no session")
	}
	// Lookup via either half of the router pair works.
	if _, ok := h.eng.Session(1); !ok {
		t.Fatalf("reverse-half lookup failed")
	}
}

// slowPairTopo is pairTopo with a link delay of several tx intervals, so
// that each direction has several hellos in flight at once.
func slowPairTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 1e6, Delay: 200 * time.Millisecond})
	return tp
}

// TestInFlightHellosCarryTheirSendState: a hello delivers the state its
// sender had when it was sent, in send order, whatever the sender has
// become since; one that is in flight when the link fails is dropped on
// arrival, and the FIFO stays in step with the events through all of it.
func TestInFlightHellosCarryTheirSendState(t *testing.T) {
	// A session the engine never starts, so no hello but the test's own.
	h := newIdleHarness(slowPairTopo(t), Config{})
	l := h.tp.Link(0)
	sess := &Session{eng: h.eng, link: l}
	sess.a.init(sess, l, &sess.b, 1)
	sess.b.init(sess, h.tp.Link(l.Reverse), &sess.a, 2)
	a, b := &sess.a, &sess.b
	for _, st := range []State{StateInit, StateUp, StateDown, StateUp} {
		a.state = st
		a.transmit()
		h.sched.RunUntil(h.sched.Now() + 10*time.Millisecond)
	}
	a.state = StateDown
	if a.inFlight.Len() != 4 {
		t.Fatalf("%d hellos in flight, want 4", a.inFlight.Len())
	}
	// From Down, each remote state leads somewhere else: Down -> Init,
	// Init -> Up, Up -> Down. So resetting the receiver to Down before an
	// arrival and reading its state after names the state delivered;
	// PacketsRx tells a hello heard from one dropped.
	step := func() (delivered State, heard bool) {
		rx := h.eng.Stats().PacketsRx
		b.state = StateDown
		h.sched.Step()
		delivered = map[State]State{StateInit: StateDown, StateUp: StateInit, StateDown: StateUp}[b.state]
		return delivered, h.eng.Stats().PacketsRx == rx+1
	}
	for i, want := range []State{StateInit, StateUp} {
		if got, heard := step(); !heard || got != want {
			t.Fatalf("arrival %d delivered %v (heard %v), want %v", i, got, heard, want)
		}
	}
	h.setLink(sess.Link(), false)
	if _, heard := step(); heard || b.state != StateDown || a.inFlight.Len() != 1 {
		t.Fatalf("the third hello crossed a failed link: heard %v, receiver %v, %d left in flight",
			heard, b.state, a.inFlight.Len())
	}
	h.setLink(sess.Link(), true)
	// The fourth was sent before the failure and outlives it.
	if got, heard := step(); !heard || got != StateUp || a.inFlight.Len() != 0 {
		t.Fatalf("after the heal: delivered %v (heard %v), %d in flight", got, heard, a.inFlight.Len())
	}

	// End to end with several in flight per direction: the handshake still
	// completes, and what was sent and not yet heard is what the FIFOs hold.
	h = newHarness(t, slowPairTopo(t), Config{})
	h.sched.RunUntil(2 * time.Second)
	sess, _ = h.eng.Session(0)
	st := h.eng.Stats()
	inFlight := sess.a.inFlight.Len() + sess.b.inFlight.Len()
	if !sess.Up() || inFlight < 6 || st.PacketsTx-st.PacketsRx != uint64(inFlight) {
		t.Fatalf("up=%v, tx %d, rx %d, %d in flight", sess.Up(), st.PacketsTx, st.PacketsRx, inFlight)
	}
}

// TestHelloAllocations: an established session on a live link is quiet.
// Over 30 s of simulated time it schedules no event, and neither the
// replay that brings its counters up to date nor the wake a failure
// causes allocates; the failure is then detected as the hellos it
// replayed say: one detection time after the last one heard.
func TestHelloAllocations(t *testing.T) {
	h := newHarness(t, slowPairTopo(t), Config{})
	h.sched.RunUntil(5 * time.Second) // established; rings and event freelist at their peak
	sess, _ := h.eng.Session(0)
	if !sess.Up() || !sess.quiet {
		t.Fatalf("session up=%v quiet=%v after 5s", sess.Up(), sess.quiet)
	}
	rx, ran := h.eng.Stats().PacketsRx, h.sched.Ran()
	settleRuntime()
	allocs := testing.AllocsPerRun(1, func() {
		h.sched.RunUntil(h.sched.Now() + 30*time.Second) // >= 600 hellos per direction
		h.eng.Stats()
	})
	if got := h.sched.Ran() - ran; got != 0 {
		t.Fatalf("a quiet session fired %d events over two 30 s runs, want 0", got)
	}
	if got := h.eng.Stats().PacketsRx - rx; got < 2*1000 {
		t.Fatalf("%d hellos heard over two 30 s runs", got)
	}
	if allocs != 0 {
		t.Fatalf("%v objects allocated replaying >= 1000 hello exchanges, want 0", allocs)
	}
	var before, after runtime.MemStats
	settleRuntime()
	runtime.ReadMemStats(&before)
	h.setLink(sess.Link(), false)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 || sess.quiet {
		t.Fatalf("waking the session allocated %d objects (quiet=%v after), want 0", n, sess.quiet)
	}
	failAt := h.sched.Now()
	heard := min(sess.a.heard, sess.b.heard) // the first end to stop hearing declares it
	h.sched.RunUntil(failAt + time.Second)
	if len(h.downs) != 1 || h.downs[0] != heard+h.eng.DetectTime() {
		t.Fatalf("downs %v after a failure at %v, want one at %v", h.downs, failAt, heard+h.eng.DetectTime())
	}
}

// settleRuntime lets the runtime's own goroutines run to their parking
// points before an allocation count. AllocsPerRun counts every goroutine's
// allocations, not just the caller's, and the test measures one run, so a
// single foreign object fails the zero bound. The one seen is the 96-byte
// sudog that the unique package's cleanup goroutine (net/netip starts it
// at init) allocates at its first channel receive: when the test goroutine
// takes the processor before that goroutine first runs, it waits in the
// run queue until sysmon preempts the test goroutine, which on a loaded
// host happens inside the measured window. runtime.GC completes any cycle
// in flight, so no cycle ends inside the window (the end of each cycle
// wakes that goroutine again); sleeping then lets every runnable goroutine
// run, until a millisecond passes with no allocation in the process.
func settleRuntime() {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for {
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&after)
		if after.Mallocs == before.Mallocs {
			return
		}
		before = after
	}
}
