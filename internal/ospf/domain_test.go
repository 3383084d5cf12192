package ospf

import (
	"net/netip"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

type fibFlowKey = fib.FlowKey

// startFig1 builds and converges a Fig1 IGP domain.
func startFig1(t testing.TB) (*topo.Topology, *Domain) {
	t.Helper()
	return startFig1With(t, (*Domain).Start)
}

// startFig1With builds a Fig1 IGP domain, brings it up with start (Start,
// or the flooded refFloodedStart) and converges it.
func startFig1With(t testing.TB, start func(*Domain)) (*topo.Topology, *Domain) {
	t.Helper()
	tp := topo.Fig1(topo.Fig1Opts{})
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	start(d)
	if _, err := d.RunUntilConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.ConvergedIdentically(); err != nil {
		t.Fatal(err)
	}
	if len(d.Errors) > 0 {
		t.Fatalf("protocol errors: %v", d.Errors)
	}
	return tp, d
}

func blueAddr() netip.Addr { return netip.MustParseAddr("10.66.0.1") }

// nhNodes returns the next-hop node names and weights for a router's blue
// prefix route.
func blueRoute(t testing.TB, tp *topo.Topology, d *Domain, router string) map[string]int {
	t.Helper()
	r := d.Router(tp.MustNode(router))
	route, ok := r.FIB().Lookup(blueAddr())
	if !ok {
		t.Fatalf("%s has no route to blue", router)
	}
	out := map[string]int{}
	for _, nh := range route.NextHops {
		out[tp.Name(nh.Node)] += nh.Weight
	}
	return out
}

// TestFig1aRouting pins the paper's Figure 1a at the protocol level: after
// plain IGP convergence A forwards to blue via B, and B via R2, overlapping
// on B-R2-C.
func TestFig1aRouting(t *testing.T) {
	tp, d := startFig1(t)
	want := map[string]map[string]int{
		"A":  {"B": 1},
		"B":  {"R2": 1},
		"R1": {"R4": 1},
		"R2": {"C": 1},
		"R3": {"C": 1},
		"R4": {"C": 1},
	}
	for router, nhs := range want {
		got := blueRoute(t, tp, d, router)
		if len(got) != len(nhs) {
			t.Fatalf("%s blue next hops = %v, want %v", router, got, nhs)
		}
		for n, w := range nhs {
			if got[n] != w {
				t.Fatalf("%s blue next hops = %v, want %v", router, got, nhs)
			}
		}
	}
	// C must hold a local route.
	c := d.Router(tp.MustNode("C"))
	route, ok := c.FIB().Lookup(blueAddr())
	if !ok || !route.Local {
		t.Fatalf("C's blue route = %+v, %v; want local", route, ok)
	}
}

func TestLoopbacksRouted(t *testing.T) {
	tp, d := startFig1(t)
	// Every router can reach every other router's loopback.
	for _, from := range tp.Nodes() {
		for _, to := range tp.Nodes() {
			if from.ID == to.ID {
				continue
			}
			r := d.Router(from.ID)
			route, ok := r.FIB().Lookup(Loopback(to.ID))
			if !ok {
				t.Fatalf("%s has no route to %s's loopback", from.Name, to.Name)
			}
			if route.Local {
				t.Fatalf("%s thinks %s's loopback is local", from.Name, to.Name)
			}
		}
	}
}

func TestPlaneTraceDelivers(t *testing.T) {
	tp, d := startFig1(t)
	plane := d.Plane()
	key := fibKey(blueAddr(), 1234)
	path, err := plane.Trace(tp.MustNode("A"), key)
	if err != nil {
		t.Fatal(err)
	}
	wantPath := []string{"A", "B", "R2", "C"}
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v", names(tp, path))
	}
	for i, n := range wantPath {
		if tp.Name(path[i]) != n {
			t.Fatalf("path = %v, want %v", names(tp, path), wantPath)
		}
	}
}

// fig1cLies returns the paper's Figure 1c lies: fB (total cost 2 via R3)
// and two copies of fA (total cost 3 via R1).
func fig1cLies(tp *topo.Topology) []*LSA {
	blue := topo.Fig1BluePrefix
	a := NodeRouterID(tp.MustNode("A"))
	b := NodeRouterID(tp.MustNode("B"))
	r1 := NodeRouterID(tp.MustNode("R1"))
	r3 := NodeRouterID(tp.MustNode("R3"))
	return []*LSA{
		{
			Header: Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 1, Seq: 1},
			Prefix: blue, Metric: 1, AttachedTo: b, AttachCost: 1, ForwardVia: r3,
		},
		{
			Header: Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 2, Seq: 1},
			Prefix: blue, Metric: 2, AttachedTo: a, AttachCost: 1, ForwardVia: r1,
		},
		{
			Header: Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 3, Seq: 1},
			Prefix: blue, Metric: 2, AttachedTo: a, AttachCost: 1, ForwardVia: r1,
		},
	}
}

// TestFig1cFakeTopology reproduces the paper's Figure 1c/1d control plane:
// after injecting fB, B load-balances evenly over R2 and R3; after
// injecting two fA nodes, A splits 1:2 between B and R1. No other router
// changes its route.
func TestFig1cFakeTopology(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3")) // controller connects to R3, as in the demo

	lies := fig1cLies(tp)
	// First lie: ECMP at B.
	if err := inj.OriginateForeign(lies[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := blueRoute(t, tp, d, "B")
	if got["R2"] != 1 || got["R3"] != 1 || len(got) != 2 {
		t.Fatalf("B after fB = %v, want R2:1 R3:1", got)
	}
	if a := blueRoute(t, tp, d, "A"); len(a) != 1 || a["B"] != 1 {
		t.Fatalf("A changed unexpectedly after fB: %v", a)
	}

	// Second and third lies: uneven split at A.
	if err := inj.OriginateForeign(lies[1]); err != nil {
		t.Fatal(err)
	}
	if err := inj.OriginateForeign(lies[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	gotA := blueRoute(t, tp, d, "A")
	if gotA["B"] != 1 || gotA["R1"] != 2 || len(gotA) != 2 {
		t.Fatalf("A after 2xfA = %v, want B:1 R1:2", gotA)
	}
	// Downstream routers unchanged.
	for router, want := range map[string]string{"R1": "R4", "R2": "C", "R3": "C", "R4": "C"} {
		got := blueRoute(t, tp, d, router)
		if len(got) != 1 || got[want] != 1 {
			t.Fatalf("%s changed unexpectedly: %v", router, got)
		}
	}
	if err := d.ConvergedIdentically(); err != nil {
		t.Fatal(err)
	}
	if len(d.Errors) > 0 {
		t.Fatalf("protocol errors: %v", d.Errors)
	}
}

// TestFakeWithdrawal verifies that flushing lies (MaxAge re-origination)
// restores the original routing.
func TestFakeWithdrawal(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3"))
	lies := fig1cLies(tp)
	for _, l := range lies {
		if err := inj.OriginateForeign(l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Withdraw all lies.
	for _, l := range lies {
		w := l.Clone()
		w.Header.Age = MaxAgeSeconds
		if err := inj.OriginateForeign(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.RunUntilConverged(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); len(got) != 1 || got["R2"] != 1 {
		t.Fatalf("B after withdrawal = %v, want R2 only", got)
	}
	if got := blueRoute(t, tp, d, "A"); len(got) != 1 || got["B"] != 1 {
		t.Fatalf("A after withdrawal = %v, want B only", got)
	}
	// Fake LSAs must be gone from every database.
	for n, r := range d.Routers() {
		if len(r.DB().ByType(TypeFake)) != 0 {
			t.Fatalf("%s still holds fake LSAs", tp.Name(n))
		}
	}
}

// TestLinkFailureReroute fails B-R2 and verifies B reroutes to blue via R3
// after the dead interval.
func TestLinkFailureReroute(t *testing.T) {
	tp, d := startFig1(t)
	if err := d.SetLinkState(tp.MustNode("B"), tp.MustNode("R2"), false); err != nil {
		t.Fatal(err)
	}
	// Let hellos time out (dead interval 4s) and the network reconverge.
	d.Scheduler().RunUntil(d.Scheduler().Now() + 10*time.Second)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); len(got) != 1 || got["R3"] != 1 {
		t.Fatalf("B after B-R2 failure = %v, want R3", got)
	}
	// Heal: hellos re-form the adjacency and routing reverts.
	if err := d.SetLinkState(tp.MustNode("B"), tp.MustNode("R2"), true); err != nil {
		t.Fatal(err)
	}
	d.Scheduler().RunUntil(d.Scheduler().Now() + 10*time.Second)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); len(got) != 1 || got["R2"] != 1 {
		t.Fatalf("B after heal = %v, want R2", got)
	}
}

func TestOriginateForeignRejectsStale(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3"))
	l := fig1cLies(tp)[0]
	if err := inj.OriginateForeign(l); err != nil {
		t.Fatal(err)
	}
	if err := inj.OriginateForeign(l.Clone()); err == nil {
		t.Fatalf("same-seq re-origination accepted")
	}
	bad := l.Clone()
	bad.Header.AdvRouter = 0
	if err := inj.OriginateForeign(bad); err == nil {
		t.Fatalf("LSA without origin accepted")
	}
}

func TestInvalidForwardingAddressReported(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3"))
	lie := &LSA{
		Header:     Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 9, Seq: 1},
		Prefix:     topo.Fig1BluePrefix,
		Metric:     1,
		AttachedTo: NodeRouterID(tp.MustNode("B")),
		AttachCost: 1,
		ForwardVia: NodeRouterID(tp.MustNode("R4")), // not B's neighbor
	}
	if err := inj.OriginateForeign(lie); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(d.Errors) == 0 {
		t.Fatalf("invalid forwarding address not reported")
	}
	// B's routing must be unaffected by the invalid lie.
	if got := blueRoute(t, tp, d, "B"); len(got) != 1 || got["R2"] != 1 {
		t.Fatalf("B = %v after invalid lie", got)
	}
}

// TestStatsAccumulate counts the flooded start's boot flood: a synced
// Start sends nothing.
func TestStatsAccumulate(t *testing.T) {
	_, d := startFig1With(t, refFloodedStart)
	s := d.Stats()
	if s.PacketsSent == 0 || s.BytesSent == 0 || s.SPFRuns == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
	// LSDB: 7 router LSAs + 7 loopback prefix LSAs + 1 blue prefix LSA.
	if s.LSDBSize != 15 {
		t.Fatalf("LSDB size = %d, want 15", s.LSDBSize)
	}
}

func TestConvergenceOnRandomTopology(t *testing.T) {
	tp := topo.RandomConnected(topo.RandomOpts{Nodes: 20, Degree: 3, Prefixes: 2, Seed: 3})
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	d.Start()
	if _, err := d.RunUntilConverged(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.ConvergedIdentically(); err != nil {
		t.Fatal(err)
	}
	// All routers agree on routes to both prefixes.
	for _, p := range tp.Prefixes() {
		addr := HostAddr(p.Prefix, 0)
		for n, r := range d.Routers() {
			if _, ok := r.FIB().Lookup(addr); !ok {
				t.Fatalf("%s has no route to %v", tp.Name(n), p.Prefix)
			}
		}
	}
}

func fibKey(dst netip.Addr, port uint16) fibFlowKey {
	return fibFlowKey{Src: netip.MustParseAddr("10.0.0.1"), Dst: dst, SrcPort: port, DstPort: 80, Proto: 6}
}

func names(tp *topo.Topology, ids []topo.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = tp.Name(id)
	}
	return out
}

func BenchmarkFloodingConvergenceFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := topo.Fig1(topo.Fig1Opts{})
		d := NewDomain(tp, event.NewScheduler(), Config{})
		d.Start()
		if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloodingConvergence50(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := topo.RandomConnected(topo.RandomOpts{Nodes: 50, Degree: 3, Prefixes: 1, Seed: 1})
		d := NewDomain(tp, event.NewScheduler(), Config{})
		d.Start()
		if _, err := d.RunUntilConverged(300 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
