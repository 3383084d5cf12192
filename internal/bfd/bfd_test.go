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

// harness wires an engine over a blocked-map we control and records the
// notifications.
type harness struct {
	tp      *topo.Topology
	sched   *event.Scheduler
	eng     *Engine
	blocked map[topo.LinkID]bool
	downs   []time.Duration
	ups     []time.Duration
}

func newHarness(t *testing.T, tp *topo.Topology, cfg Config) *harness {
	t.Helper()
	h := &harness{tp: tp, sched: event.NewScheduler(), blocked: make(map[topo.LinkID]bool)}
	h.eng = New(tp, h.sched, cfg)
	h.eng.Blocked = func(id topo.LinkID) bool { return h.blocked[id] }
	h.eng.OnDown = func(topo.Link) { h.downs = append(h.downs, h.sched.Now()) }
	h.eng.OnUp = func(topo.Link) { h.ups = append(h.ups, h.sched.Now()) }
	h.eng.Start()
	return h
}

// setLink fails or heals both directions of the harness link pair.
func (h *harness) setLink(l topo.Link, up bool) {
	h.blocked[l.ID] = !up
	if l.Reverse != topo.NoLink {
		h.blocked[l.Reverse] = !up
	}
}

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
	deadline := failAt + h.eng.DetectTime() + h.eng.cfg.TxInterval
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

func TestDetectTimeNegotiation(t *testing.T) {
	tp := pairTopo(t)
	h := newHarness(t, tp, Config{TxInterval: 20 * time.Millisecond, MinRx: 60 * time.Millisecond, DetectMult: 4})
	h.sched.RunUntil(time.Second)
	sess, _ := h.eng.Session(0)
	if !sess.Up() {
		t.Fatalf("session not up")
	}
	// Detection time = max(local MinRx, remote TxInterval) × remote
	// DetectMult = max(60ms, 20ms) × 4 = 240ms.
	if got := sess.a.detectTime(); got != 240*time.Millisecond {
		t.Fatalf("negotiated detect time %v, want 240ms", got)
	}
	if got := h.eng.DetectTime(); got != 240*time.Millisecond {
		t.Fatalf("engine detect time %v, want 240ms", got)
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
	// No hello of the engine's own within the test: an hour's tx interval.
	h := newHarness(t, slowPairTopo(t), Config{TxInterval: time.Hour})
	sess, _ := h.eng.Session(0)
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
	for i, want := range []State{StateInit, StateUp} {
		h.sched.Step()
		if !b.haveRemote || b.remote.State != want || b.remote.TxInterval != time.Hour || b.remote.DetectMult != 3 {
			t.Fatalf("arrival %d delivered %+v, want state %v with the engine's timers", i, b.remote, want)
		}
	}
	h.setLink(sess.Link(), false)
	rx := h.eng.Stats().PacketsRx
	h.sched.Step() // the third arrives on a dead link
	if h.eng.Stats().PacketsRx != rx || b.remote.State != StateUp || a.inFlight.Len() != 1 {
		t.Fatalf("a hello crossed a failed link: rx %d -> %d, remote %+v, %d left in flight",
			rx, h.eng.Stats().PacketsRx, b.remote, a.inFlight.Len())
	}
	h.setLink(sess.Link(), true)
	h.sched.Step() // the fourth was sent before the failure and outlives it
	if h.eng.Stats().PacketsRx != rx+1 || b.remote.State != StateUp || a.inFlight.Len() != 0 {
		t.Fatalf("after the heal: rx %d, remote %+v, %d in flight", h.eng.Stats().PacketsRx, b.remote, a.inFlight.Len())
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

// TestHelloAllocations: on an established session a hello — tx tick,
// delivery, the peer's re-armed detection timer — allocates nothing.
func TestHelloAllocations(t *testing.T) {
	h := newHarness(t, slowPairTopo(t), Config{})
	h.sched.RunUntil(5 * time.Second) // established; rings and event freelist at their peak
	sess, _ := h.eng.Session(0)
	if !sess.Up() {
		t.Fatalf("session not up")
	}
	rx := h.eng.Stats().PacketsRx
	settleRuntime()
	allocs := testing.AllocsPerRun(1, func() {
		h.sched.RunUntil(h.sched.Now() + 30*time.Second) // >= 600 hellos per direction
	})
	if got := h.eng.Stats().PacketsRx - rx; got < 2*1000 || !sess.Up() || len(h.downs) > 0 {
		t.Fatalf("%d hellos heard over two runs, up=%v, downs=%v", got, sess.Up(), h.downs)
	}
	if allocs != 0 {
		t.Fatalf("%v objects allocated over >= 1000 steady-state hello exchanges, want 0", allocs)
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
