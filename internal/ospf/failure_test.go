package ospf

import (
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
// loss, so retransmit timers fire, are re-armed and are cancelled by acks
// all through the run. The timers towards a neighbor share one body that
// retransmits the oldest timer's key in the neighbor's ring; that is the
// timer firing only if the ring's front is always still armed, which is
// checked after every event. Once the domain converges every ring is
// empty.
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
	for steps := 0; !d.Converged(); steps++ {
		if !d.sched.Step() {
			t.Fatal("the queue drained before the domain converged")
		}
		for _, r := range d.routers {
			for _, n := range r.nbrList {
				if n.rxmt.Len() == 0 {
					continue
				}
				front := n.rxmt.Peek()
				if p, ok := n.unacked[front.key]; !front.handle.Scheduled() || !ok || p.handle != front.handle {
					t.Fatalf("event %d: router %d's ring towards %d starts with a timer for %v that is not armed",
						steps, r.id, n.id, front.key)
				}
			}
		}
	}
	for _, r := range d.routers {
		for _, n := range r.nbrList {
			if n.rxmt.Len() != 0 {
				t.Fatalf("router %d holds %d keys towards %d after convergence", r.id, n.rxmt.Len(), n.id)
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
