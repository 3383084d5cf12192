package ospf

import (
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// TestConvergenceUnderPacketLoss floods the Fig1 domain with 30% packet
// loss: retransmissions must still converge every LSDB identically.
func TestConvergenceUnderPacketLoss(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	d := NewDomain(tp, event.NewScheduler(), Config{RxmtInterval: 500 * time.Millisecond})
	d.LossRate = 0.3
	d.Start()
	if _, err := d.RunUntilConverged(300 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.ConvergedIdentically(); err != nil {
		t.Fatal(err)
	}
	// Routing must be correct despite the losses.
	r := d.Router(tp.MustNode("A"))
	route, ok := r.FIB().Lookup(topo.Fig1BluePrefix.Addr())
	if !ok || len(route.NextHops) != 1 {
		t.Fatalf("A's route after lossy flooding: %+v, %v", route, ok)
	}
	// Loss must have actually caused retransmissions (more packets than
	// a clean run).
	clean := NewDomain(topo.Fig1(topo.Fig1Opts{}), event.NewScheduler(), Config{})
	clean.Start()
	if _, err := clean.RunUntilConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Stats().PacketsSent <= clean.Stats().PacketsSent {
		t.Fatalf("lossy run sent %d packets, clean %d: retransmission untested",
			d.Stats().PacketsSent, clean.Stats().PacketsSent)
	}
}

// TestRetransmitTimersFireInArmOrder floods a fat-tree k=4 under 30 %
// loss, so retransmissions fire, entries are resent and acks clear them
// all through the run. Each adjacency's retransmission list runs on one
// timer; after every event checkRetransmitLists holds the list to its ring
// and its timer, and once the domain converges every ring is empty and
// every timer idle.
func TestRetransmitTimersFireInArmOrder(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	clean := NewDomain(tp, event.NewScheduler(), Config{RxmtInterval: 500 * time.Millisecond})
	clean.Start()
	if _, err := clean.RunUntilConverged(time.Minute); err != nil {
		t.Fatal(err)
	}

	d := NewDomain(tp, event.NewScheduler(), Config{RxmtInterval: 500 * time.Millisecond})
	d.LossRate = 0.3
	d.Start()
	var ring []rxmtEntry
	for steps := 0; !d.Converged(); steps++ {
		if !d.sched.Step() {
			t.Fatal("the queue drained before the domain converged")
		}
		checkRetransmitLists(t, d, steps, &ring)
	}
	for _, r := range d.routers {
		for _, n := range r.nbrList {
			if n.rxmt.Len() != 0 || n.rxmtTimer.Scheduled() {
				t.Fatalf("router %d holds %d entries towards %d after convergence (timer armed: %v)",
					r.id, n.rxmt.Len(), n.id, n.rxmtTimer.Scheduled())
			}
		}
	}
	if err := d.ConvergedIdentically(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Stats().PacketsSent, clean.Stats().PacketsSent; got <= want {
		t.Fatalf("lossy run sent %d packets, clean %d: no retransmission fired", got, want)
	}
}

// checkRetransmitLists holds every adjacency's retransmission list to the
// invariants its one timer rests on: the ring is in due order, every
// listed instance has a ring entry with its due, a live adjacency with
// anything listed has its timer armed at or before the ring's front, and
// an empty list leaves neither entries nor a timer behind. ring is
// scratch storage reused across calls.
func checkRetransmitLists(t *testing.T, d *Domain, step int, ring *[]rxmtEntry) {
	t.Helper()
	for _, r := range d.routers {
		for _, n := range r.nbrList {
			entries := ringEntries(n, (*ring)[:0])
			*ring = entries
			if len(n.unacked) == 0 {
				if len(entries) != 0 || n.rxmtTimer.Scheduled() {
					t.Fatalf("event %d: router %d lists nothing towards %d but holds %d entries (timer armed: %v)",
						step, r.id, n.id, len(entries), n.rxmtTimer.Scheduled())
				}
				continue
			}
			// Count the listed keys that have their entry. A key sent twice
			// at one instant has two equal entries, both in the run of
			// entries due at that instant, which starts at run: only the
			// first counts.
			listed, run := 0, 0
			for i, e := range entries {
				if i > 0 && e.due != entries[i-1].due {
					if e.due < entries[i-1].due {
						t.Fatalf("event %d: router %d's ring towards %d is out of due order at %d", step, r.id, n.id, i)
					}
					run = i
				}
				if p, ok := n.unacked[e.key]; ok && p.due == e.due && !slices.Contains(entries[run:i], e) {
					listed++
				}
			}
			if listed != len(n.unacked) {
				t.Fatalf("event %d: router %d lists %d keys towards %d, %d of them with a ring entry at their due",
					step, r.id, len(n.unacked), n.id, listed)
			}
			if !n.up {
				continue
			}
			if at, ok := n.rxmtTimer.When(); !ok || at > entries[0].due {
				t.Fatalf("event %d: router %d's timer towards %d is at %v (armed: %v), after the front's due %v",
					step, r.id, n.id, at, ok, entries[0].due)
			}
		}
	}
}

// ringEntries appends n's ring, front first, to buf. It pops every entry
// and pushes it back, which leaves the ring holding what it held.
func ringEntries(n *neighbor, buf []rxmtEntry) []rxmtEntry {
	for range n.rxmt.Len() {
		buf = append(buf, n.rxmt.Pop())
	}
	for _, e := range buf {
		n.rxmt.Push(e)
	}
	return buf
}

// TestColdStartHoldsOneTimerPerAdjacency converges a fat-tree k=8 from
// cold and counts, after every event, the scheduler events the
// retransmission lists hold: everything queued but the packets in flight,
// the three tickers per router and the debounced SPF runs. Each
// adjacency's list runs on one timer, so that is at most one per
// adjacency, however many updates the flood has unacked. The first hellos
// go out at one second, after the domain converged, so the in-flight
// count is every packet on the wire; every 1024 events the count is also
// matched to the timers the adjacencies hold armed.
func TestColdStartHoldsOneTimerPerAdjacency(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	d := NewDomain(tp, event.NewScheduler(), Config{})
	d.Start()
	adjacencies, peak := 0, 0
	for _, r := range d.routers {
		adjacencies += len(r.nbrList)
	}
	for steps := 0; !d.Converged(); steps++ {
		if !d.sched.Step() {
			t.Fatal("the queue drained before the domain converged")
		}
		timers := d.sched.Pending() - d.inflight - 3*len(d.routers) - d.spfPending
		if timers > adjacencies {
			t.Fatalf("event %d: the retransmission lists hold %d scheduler events over %d adjacencies",
				steps, timers, adjacencies)
		}
		peak = max(peak, timers)
		if steps%1024 != 0 {
			continue
		}
		armed := 0
		for _, r := range d.routers {
			for _, n := range r.nbrList {
				if n.rxmtTimer.Scheduled() {
					armed++
				}
			}
		}
		if armed != timers {
			t.Fatalf("event %d: %d timers armed, %d events counted", steps, armed, timers)
		}
	}
	if now := d.sched.Now(); now >= helloInterval {
		t.Fatalf("converged at %v, after the first hellos: the in-flight count missed them", now)
	}
	t.Logf("peak: %d retransmission timers over %d adjacencies", peak, adjacencies)
	if peak == 0 {
		t.Fatal("no retransmission timer was ever armed: the count is vacuous")
	}
}

// TestRetransmitTimerOnDownAdjacency lists an update towards a neighbor
// the router holds down — a reply to a packet that reached it before the
// neighbor's hello did — and lets the timer fire: it resends nothing and
// drops the list, as declaring the neighbor dead does.
func TestRetransmitTimerOnDownAdjacency(t *testing.T) {
	d, a, n, b := convergedFatTree(t)
	sched := d.sched
	own, ok := a.db.Get(Key{Type: TypeRouter, AdvRouter: a.id})
	if !ok {
		t.Fatal("a holds no router LSA of its own")
	}
	// The link is down, so nothing crosses it, and a holds b down.
	if err := d.SetLinkState(a.node, b.node, false); err != nil {
		t.Fatal(err)
	}
	n.up = false
	// b's stale copy of a's Router LSA: a answers with its own instance.
	stale := own.Clone()
	stale.Header.Seq--
	a.HandlePacket(b.id, appendUpdateLSA(appendPacketHeader(nil, PktLSUpdate, b.id, 1), stale.Encode()))
	if p, ok := n.unacked[own.Header.Key()]; !ok || p.lsa != own || !n.rxmtTimer.Scheduled() {
		t.Fatalf("a did not list its instance towards b: %+v, timer armed %v", p, n.rxmtTimer.Scheduled())
	}
	for n.rxmtTimer.Scheduled() {
		sent := a.PacketsSent
		if !sched.Step() {
			t.Fatal("the queue drained before the timer fired")
		}
		if !n.rxmtTimer.Scheduled() && a.PacketsSent != sent {
			t.Fatalf("the timer sent %d packets towards a neighbor held down", a.PacketsSent-sent)
		}
	}
	if len(n.unacked) != 0 || n.rxmt.Len() != 0 {
		t.Fatalf("after the timer: %d listed, %d ring entries, want none", len(n.unacked), n.rxmt.Len())
	}
}

// TestLieInjectionUnderPacketLoss verifies the Fibbing-specific path also
// survives loss: the fake LSA reaches B through retransmissions.
func TestLieInjectionUnderPacketLoss(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	d := NewDomain(tp, event.NewScheduler(), Config{RxmtInterval: 500 * time.Millisecond})
	d.LossRate = 0.25
	d.Start()
	if _, err := d.RunUntilConverged(300 * time.Second); err != nil {
		t.Fatal(err)
	}
	inj := d.Router(tp.MustNode("R3"))
	if err := inj.OriginateForeign(fig1cLies(tp)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 300*time.Second); err != nil {
		t.Fatal(err)
	}
	got := blueRoute(t, tp, d, "B")
	if got["R2"] != 1 || got["R3"] != 1 {
		t.Fatalf("B after lossy lie injection = %v", got)
	}
}

// TestFakeNextHopSurvivesLinkFailure pins the failure semantics of lies:
// when the link to a fake node's forwarding address dies, the lying
// router must stop using the fake path (no blackhole) and fall back to
// its real next hops; when the link heals, the fake path returns.
func TestFakeNextHopSurvivesLinkFailure(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3"))
	if err := inj.OriginateForeign(fig1cLies(tp)[0]); err != nil { // fB via R3
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); got["R3"] != 1 {
		t.Fatalf("precondition: fB not active: %v", got)
	}

	// Fail B-R3: the fake's forwarding address becomes unreachable.
	if err := d.SetLinkState(tp.MustNode("B"), tp.MustNode("R3"), false); err != nil {
		t.Fatal(err)
	}
	d.Scheduler().RunUntil(d.Scheduler().Now() + 10*time.Second)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := blueRoute(t, tp, d, "B")
	if len(got) != 1 || got["R2"] != 1 {
		t.Fatalf("B after forwarding-address failure = %v, want R2 only", got)
	}

	// Heal: the fake path comes back without controller action.
	if err := d.SetLinkState(tp.MustNode("B"), tp.MustNode("R3"), true); err != nil {
		t.Fatal(err)
	}
	d.Scheduler().RunUntil(d.Scheduler().Now() + 10*time.Second)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got = blueRoute(t, tp, d, "B")
	if got["R2"] != 1 || got["R3"] != 1 {
		t.Fatalf("B after heal = %v, want R2+R3", got)
	}
}

// TestImpliedAck reproduces the retransmission livelock scenario directly:
// a router holding a stale instance keeps retransmitting it to a neighbor
// that already has a newer one; the neighbor's newer reply must clear the
// sender's retransmission state.
func TestImpliedAck(t *testing.T) {
	tp, d := startFig1(t)
	b := d.Router(tp.MustNode("B"))
	r2 := d.Router(tp.MustNode("R2"))

	// Simulate divergence: R2 holds a newer instance of B's router LSA
	// than B is flooding (as happens after partition heal).
	stale, ok := b.db.Get(Key{Type: TypeRouter, AdvRouter: b.id, LSID: 0})
	if !ok {
		t.Fatal("B has no router LSA")
	}
	newer := stale.Clone()
	newer.Header.Seq += 5
	r2.db.Install(newer)

	// B floods its stale instance directly to R2.
	var nbr *neighbor
	for _, n := range b.nbrs {
		if n.id == r2.id {
			nbr = n
		}
	}
	b.sendUpdate(nbr, stale)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatalf("livelock: %v", err)
	}
	if len(nbr.unacked) != 0 {
		t.Fatalf("unacked entries left: %d", len(nbr.unacked))
	}
	// B must have adopted the newer instance.
	if got, _ := b.db.Get(Key{Type: TypeRouter, AdvRouter: b.id, LSID: 0}); got.Header.Seq < newer.Header.Seq {
		t.Fatalf("B still at seq %d", got.Header.Seq)
	}
}
