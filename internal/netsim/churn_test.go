package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// twoIslands builds two link-disjoint diamonds (s1->{u1,v1}->d1 and
// s2->{u2,v2}->d2) in one topology, so the incidence graph has two
// bottleneck-dependency components and churn in one must never re-solve
// — or perturb — the other.
func twoIslands() *topo.Topology {
	t := topo.New()
	for _, island := range []string{"1", "2"} {
		s := t.AddNode("s" + island)
		u := t.AddNode("u" + island)
		v := t.AddNode("v" + island)
		d := t.AddNode("d" + island)
		t.AddLink(s, u, 1, topo.LinkOpts{Capacity: 10e6})
		t.AddLink(s, v, 2, topo.LinkOpts{Capacity: 10e6})
		t.AddLink(u, d, 1, topo.LinkOpts{Capacity: 10e6})
		t.AddLink(v, d, 1, topo.LinkOpts{Capacity: 10e6})
	}
	t.AddPrefix(mustPfx("10.50.0.0/16"), "dst1", topo.Attachment{Node: t.MustNode("d1")})
	t.AddPrefix(mustPfx("10.51.0.0/16"), "dst2", topo.Attachment{Node: t.MustNode("d2")})
	return t
}

// installIsland wires an island's tables: the ingress ECMPs over both
// middle routers so flows spread into distinct aggregates.
func installIsland(t *testing.T, net *Network, tp *topo.Topology, island, prefix string) {
	t.Helper()
	s, u, v, d := tp.MustNode("s"+island), tp.MustNode("u"+island), tp.MustNode("v"+island), tp.MustNode("d"+island)
	lsu, _ := tp.FindLink(s, u)
	lsv, _ := tp.FindLink(s, v)
	lud, _ := tp.FindLink(u, d)
	lvd, _ := tp.FindLink(v, d)
	ts := fib.NewTable(s)
	tu := fib.NewTable(u)
	tv := fib.NewTable(v)
	td := fib.NewTable(d)
	for _, err := range []error{
		ts.Install(fib.Route{Prefix: mustPfx(prefix), NextHops: []fib.NextHop{
			{Node: u, Link: lsu.ID, Weight: 1}, {Node: v, Link: lsv.ID, Weight: 1}}}),
		tu.Install(fib.Route{Prefix: mustPfx(prefix), NextHops: []fib.NextHop{{Node: d, Link: lud.ID, Weight: 1}}}),
		tv.Install(fib.Route{Prefix: mustPfx(prefix), NextHops: []fib.NextHop{{Node: d, Link: lvd.ID, Weight: 1}}}),
		td.Install(fib.Route{Prefix: mustPfx(prefix), Local: true}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	net.SetTable(s, ts)
	net.SetTable(u, tu)
	net.SetTable(v, tv)
	net.SetTable(d, td)
}

// TestChurnStormComponentScoped drives a join/leave/re-path/cap-change
// storm through island 1 and checks after every step that (a) the solves
// are component-scoped (incremental, not full), (b) every flow's rate —
// including island 2's, whose links are outside every dirty component —
// matches a from-scratch per-flow global max-min solve, so no stale rate
// survives anywhere.
func TestChurnStormComponentScoped(t *testing.T) {
	tp := twoIslands()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installIsland(t, net, tp, "1", "10.50.0.0/16")
	installIsland(t, net, tp, "2", "10.51.0.0/16")

	s1, s2 := tp.MustNode("s1"), tp.MustNode("s2")
	// Steady population on both islands.
	var island1 []FlowID
	for i := 0; i < 40; i++ {
		island1 = append(island1, net.AddFlow(s1, key("10.50.0.9", uint16(i)), 1e6))
	}
	var island2 []FlowID
	for i := 0; i < 40; i++ {
		island2 = append(island2, net.AddFlow(s2, key("10.51.0.9", uint16(1000+i)), 0))
	}
	sched.RunUntil(time.Second)
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}

	island2Rates := func() map[FlowID]float64 {
		out := make(map[FlowID]float64)
		for _, id := range island2 {
			out[id] = net.Flow(id).Rate()
		}
		return out
	}
	before := island2Rates()

	rng := rand.New(rand.NewSource(42))
	now := time.Second
	port := uint16(5000)
	for step := 0; step < 150; step++ {
		now += 10 * time.Millisecond
		sched.RunUntil(now)
		switch rng.Intn(4) {
		case 0: // join
			port++
			island1 = append(island1, net.AddFlow(s1, key("10.50.0.9", port), 1e6))
		case 1: // leave
			if len(island1) > 1 {
				i := rng.Intn(len(island1))
				net.RemoveFlow(island1[i])
				island1 = append(island1[:i], island1[i+1:]...)
			}
		case 2: // cap churn (greedy <-> capped)
			id := island1[rng.Intn(len(island1))]
			if rng.Intn(2) == 0 {
				net.SetFlowMaxRate(id, 0)
			} else {
				net.SetFlowMaxRate(id, float64(1+rng.Intn(4))*5e5)
			}
		case 3: // re-path storm: steer island 1's ingress route u <-> v
			u, v := tp.MustNode("u1"), tp.MustNode("v1")
			lsu, _ := tp.FindLink(s1, u)
			lsv, _ := tp.FindLink(s1, v)
			mid, lid := u, lsu.ID
			if rng.Intn(2) == 0 {
				mid, lid = v, lsv.ID
			}
			ns := net.tables[s1].Clone()
			if err := ns.Install(fib.Route{Prefix: mustPfx("10.50.0.0/16"),
				NextHops: []fib.NextHop{{Node: mid, Link: lid, Weight: 1}}}); err != nil {
				t.Fatal(err)
			}
			net.ApplyDiff(s1, ns, fib.DiffTables(s1, net.tables[s1], ns))
		}
		now += 10 * time.Millisecond
		sched.RunUntil(now)
		if err := net.VerifyMaxMin(1e-9); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	// A reshare counts as full only when its walks reach every active
	// link. No storm step reaches island 2, so joins, leaves, cap churn
	// and the whole-island re-path steers all count as incremental; only
	// the first instant, which solved both islands, counts as full.
	// Incremental must therefore dominate.
	st := net.Stats()
	if st.ReshareIncremental == 0 {
		t.Fatal("no incremental reshare ran during the storm")
	}
	if st.ReshareIncremental < st.ReshareFull {
		t.Fatalf("incremental solves (%d) did not dominate full solves (%d)",
			st.ReshareIncremental, st.ReshareFull)
	}
	// Island 2's allocation never moved: its component was never dirty.
	after := island2Rates()
	for id, r := range before {
		if after[id] != r {
			t.Fatalf("island-2 flow %d rate moved %v -> %v during island-1 churn", id, r, after[id])
		}
	}
	// Aggregation compresses: 40 same-rate island-1 members span at most
	// the path diversity (2 paths x live cap buckets), never the flow count.
	if st.Aggregates >= st.Flows/2 {
		t.Fatalf("aggregation ineffective: %d aggregates for %d flows", st.Aggregates, st.Flows)
	}
}

// TestLinkFailureRepathStorm fails and heals island 1's s1-u1 link under
// load: every re-path must keep the global allocation exact.
func TestLinkFailureRepathStorm(t *testing.T) {
	tp := twoIslands()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installIsland(t, net, tp, "1", "10.50.0.0/16")
	installIsland(t, net, tp, "2", "10.51.0.0/16")
	s1 := tp.MustNode("s1")
	for i := 0; i < 30; i++ {
		net.AddFlow(s1, key("10.50.0.9", uint16(i)), 1e6)
	}
	sched.RunUntil(time.Second)

	u1 := tp.MustNode("u1")
	for i := 0; i < 6; i++ {
		up := i%2 == 1
		if err := net.SetLinkState(s1, u1, up); err != nil {
			t.Fatal(err)
		}
		sched.RunUntil(time.Second + time.Duration(i+1)*100*time.Millisecond)
		if err := net.VerifyMaxMin(1e-9); err != nil {
			t.Fatalf("flap %d (up=%v): %v", i, up, err)
		}
	}
}

// TestCapChangeInheritsPendingInvalidation reproduces the race between a
// link failure and a same-instant cap change: SetLinkState queues the
// flow's aggregate for re-tracing, then (before the recompute fires) an
// adaptive player's SetFlowMaxRate moves the flow to a cap-sibling built
// from the same — now stale — trace. The sibling must inherit the queued
// invalidation, or the flow keeps forwarding across the failed link.
func TestCapChangeInheritsPendingInvalidation(t *testing.T) {
	tp := diamondTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	for n, tab := range diamondTables(t, tp, "u") {
		net.SetTable(n, tab)
	}
	s, u := tp.MustNode("s"), tp.MustNode("u")
	id := net.AddFlow(s, key("10.50.0.1", 1), 1e6) // sole member of its aggregate
	sched.RunUntil(time.Second)
	if net.Flow(id).Blocked() {
		t.Fatal("flow blocked before the failure")
	}

	// Same instant, in event order: fail the link the flow crosses, then
	// change the cap before the recompute event fires.
	if err := net.SetLinkState(s, u, false); err != nil {
		t.Fatal(err)
	}
	net.SetFlowMaxRate(id, 2e6)
	sched.RunUntil(2 * time.Second)

	if !net.Flow(id).Blocked() {
		t.Fatal("flow still forwarding across the failed link: cap change lost the pending invalidation")
	}
	if r := net.Flow(id).Rate(); r != 0 {
		t.Fatalf("blocked flow has rate %v", r)
	}
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}

	// The same race against a FIB delta: heal the link, let a second
	// flow join the aggregate, then re-path the prefix at the ingress
	// (one touched hop) and change the first flow's cap before the
	// recompute. The cap-sibling must inherit the touched hop along with
	// the queue entry, or its member is never checked there and keeps
	// forwarding via u.
	if err := net.SetLinkState(s, u, true); err != nil {
		t.Fatal(err)
	}
	stay := net.AddFlow(s, key("10.50.0.1", 2), 2e6)
	sched.RunUntil(3 * time.Second)
	v, d := tp.MustNode("v"), tp.MustNode("d")
	lsv, _ := tp.FindLink(s, v)
	lvd, _ := tp.FindLink(v, d)
	tv := fib.NewTable(v)
	if err := tv.Install(fib.Route{Prefix: mustPfx("10.50.0.0/16"), NextHops: []fib.NextHop{{Node: d, Link: lvd.ID, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	net.ApplyDiff(v, tv, fib.DiffTables(v, nil, tv))
	sched.RunUntil(3100 * time.Millisecond)
	ns := net.tables[s].Clone()
	if err := ns.Install(fib.Route{Prefix: mustPfx("10.50.0.0/16"), NextHops: []fib.NextHop{{Node: v, Link: lsv.ID, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	net.ApplyDiff(s, ns, fib.DiffTables(s, net.tables[s], ns))
	net.SetFlowMaxRate(id, 3e6)
	sched.RunUntil(4 * time.Second)
	for _, f := range []FlowID{id, stay} {
		if p := net.Flow(f).Path(); len(p) != 3 || p[1] != v {
			t.Fatalf("flow %d path %v after the re-path, want via v: cap change lost the touched hop", f, p)
		}
	}
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateCompression checks the memory story head on: 10k identical
// viewers collapse into the path-class count, and a single join re-solves
// without touching the population.
func TestAggregateCompression(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	const viewers = 10_000
	for i := 0; i < viewers; i++ {
		net.AddFlow(tp.MustNode("n1"), key("10.100.0.7", uint16(i%60000)), 1e3)
	}
	// A second, link-disjoint component (n2->n3), so the crowd's joins
	// have something to be scoped against.
	net.AddFlow(tp.MustNode("n2"), key("10.101.0.7", 9), 1e6)
	sched.RunUntil(time.Second)
	if got := net.FlowCount(); got != viewers+1 {
		t.Fatalf("FlowCount = %d", got)
	}
	if aggs := net.AggregateCount(); aggs != 2 {
		t.Fatalf("%d aggregates for two path-classes, want 2", aggs)
	}
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}
	// All members share the bottleneck fairly: 10 Mbit/s over 10k caps of
	// 1 kbit/s each -> everyone at cap.
	if r := net.Flow(0).Rate(); math.Abs(r-1e3) > 1e-6 {
		t.Fatalf("rate = %v, want 1e3", r)
	}
	incBefore := net.Stats().ReshareIncremental
	id := net.AddFlow(tp.MustNode("n1"), key("10.100.0.8", 1), 0)
	sched.RunUntil(1100 * time.Millisecond)
	if inc := net.Stats().ReshareIncremental; inc == incBefore {
		t.Fatal("single join did not run an incremental reshare")
	}
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}
	net.RemoveFlow(id)
	sched.RunUntil(1200 * time.Millisecond)
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}
}
