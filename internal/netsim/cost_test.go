package netsim

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// This file pins the re-route cost model: a FIB delta costs the members of
// the aggregates it touches one table lookup per touched hop, with no
// allocation, plus one full trace (and a leave and a join) per member that
// actually moves.

// mallocsDuring counts heap objects allocated while f runs.
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRerouteCostFollowsMovers puts 5000 viewers in one aggregate and
// applies on-path diffs at the ingress. A diff that changes only the
// route's Distance touches the aggregate and moves nobody: its recompute
// must allocate a constant, not per member. A diff that really re-splits
// the route may allocate per mover, whether it moves a tenth of the
// members or half of them.
func TestRerouteCostFollowsMovers(t *testing.T) {
	tp := diamondTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	for n, tab := range diamondTables(t, tp, "u") {
		net.SetTable(n, tab)
	}
	s, u, v, d := tp.MustNode("s"), tp.MustNode("u"), tp.MustNode("v"), tp.MustNode("d")
	lsu, _ := tp.FindLink(s, u)
	lsv, _ := tp.FindLink(s, v)
	lvd, _ := tp.FindLink(v, d)
	tv := fib.NewTable(v)
	if err := tv.Install(fib.Route{Prefix: mustPfx("10.50.0.0/16"), NextHops: []fib.NextHop{{Node: d, Link: lvd.ID, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	net.SetTable(v, tv)
	const members = 5000
	ids := make([]FlowID, members)
	for i := range ids {
		k := key("10.50.0.1", uint16(i))
		k.Dst = netip.AddrFrom4([4]byte{10, 50, byte(i % 7), byte(1 + i%200)})
		ids[i] = net.AddFlow(s, k, 1e3)
	}
	now := time.Second
	sched.RunUntil(now)
	if got := net.AggregateCount(); got != 1 {
		t.Fatalf("%d aggregates before any diff, want 1", got)
	}

	// ingress installs the route s uses towards 10.50/16 and returns the
	// allocations of the recompute it triggers and the members it moved.
	distance := int64(0)
	ingress := func(wu, wv int) (allocs uint64, movers int) {
		t.Helper()
		distance++
		route := fib.Route{Prefix: mustPfx("10.50.0.0/16"), Distance: distance}
		if wu > 0 {
			route.NextHops = append(route.NextHops, fib.NextHop{Node: u, Link: lsu.ID, Weight: wu})
		}
		if wv > 0 {
			route.NextHops = append(route.NextHops, fib.NextHop{Node: v, Link: lsv.ID, Weight: wv})
		}
		ns := net.tables[s].Clone()
		if err := ns.Install(route); err != nil {
			t.Fatal(err)
		}
		before := make([]*Aggregate, members)
		for i, id := range ids {
			before[i] = net.Flow(id).agg
		}
		net.ApplyDiff(s, ns, fib.DiffTables(s, net.tables[s], ns))
		if len(net.invalid) == 0 {
			t.Fatal("on-path diff invalidated nothing")
		}
		now += 10 * time.Millisecond
		allocs = mallocsDuring(func() { sched.RunUntil(now) })
		for i, id := range ids {
			if net.Flow(id).agg != before[i] {
				movers++
			}
		}
		if err := net.VerifyMaxMin(1e-9); err != nil {
			t.Fatal(err)
		}
		return allocs, movers
	}

	ingress(1, 0) // warm the scratch
	const constant = 64
	allocs, movers := ingress(1, 0)
	if movers != 0 {
		t.Fatalf("distance-only diff moved %d members", movers)
	}
	if allocs > constant {
		t.Fatalf("distance-only diff over %d members: recompute allocated %d objects, want at most %d whatever the member count",
			members, allocs, constant)
	}
	t.Logf("distance-only: %d allocs for %d members", allocs, members)

	// Real re-splits: a tenth of the members move, then more.
	const perMover = 3
	for _, w := range [][2]int{{9, 1}, {1, 1}, {1, 0}} {
		allocs, movers := ingress(w[0], w[1])
		if movers < members/20 {
			t.Fatalf("re-split %v moved only %d members", w, movers)
		}
		if allocs > uint64(perMover*movers+constant) {
			t.Fatalf("re-split %v moved %d of %d members and allocated %d objects, want at most %d per mover",
				w, movers, members, allocs, perMover)
		}
		t.Logf("re-split %v: %d allocs for %d movers of %d members", w, allocs, movers, members)
	}
}

// TestCrowdRerouteTracesOnlyMovers runs a crowd-shaped surge (one ingress,
// one prefix, a fat-tree, two waves) through four instants of lie-like
// deltas and accounts, from outside, for every full trace the plane
// performs. reroute traces a flow in exactly two places: once when it is
// new, and once when its member check fails. The test mirrors that check
// (forwardsAsRecorded over the queued aggregates and their touched hops)
// before each recompute and requires afterwards that the members which
// changed aggregate are exactly the ones it failed — so no trace was spent
// on a member that stayed — and that the check itself allocates nothing.
func TestCrowdRerouteTracesOnlyMovers(t *testing.T) {
	viewers := 20000
	if testing.Short() {
		viewers = 4000
	}
	tp := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 1e9, MaxWeight: 3, Seed: 2})
	routing := &equivRouting{tp: tp, weights: make([]int64, tp.NumLinks())}
	for _, l := range tp.Links() {
		routing.weights[l.ID] = l.Weight
	}
	pfx, _ := tp.PrefixByName(topo.FatTreePrefixName)
	routing.dests = []equivDest{{prefix: pfx.Prefix, at: pfx.Attachments[0].Node, on: true}}
	tables := routing.tables(t)

	// The ingress is the router farthest from the prefix.
	dist := routing.distancesTo(pfx.Attachments[0].Node)
	ingress := topo.NodeID(0)
	for n := range dist {
		if !tp.Node(topo.NodeID(n)).Host && dist[n] > dist[ingress] {
			ingress = topo.NodeID(n)
		}
	}

	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	for n, tab := range tables {
		net.ApplyDiff(n, tab, fib.DiffTables(n, nil, tab))
	}
	rng := rand.New(rand.NewSource(7))
	base := pfx.Prefix.Addr().As4()
	var ids []FlowID
	join := func(count int) {
		for i := 0; i < count; i++ {
			host := 1 + len(ids)%65000
			base[2], base[3] = byte(host>>8), byte(host)
			k := fib.FlowKey{Src: mustAddr("10.0.0.1"), Dst: netip.AddrFrom4(base), SrcPort: uint16(rng.Intn(60000)), DstPort: 8080, Proto: 6}
			ids = append(ids, net.AddFlow(ingress, k, 1e5))
		}
	}

	traces, moversTotal, checkedTotal := 0, 0, 0
	// recompute runs the pending recompute, mirroring reroute's member
	// check first and comparing its verdicts with what moved.
	recompute := func(at time.Duration) {
		t.Helper()
		fails := make(map[FlowID]bool)
		for _, a := range net.invalid {
			for _, f := range a.members {
				checkedTotal++
				if !net.forwardsAsRecorded(a, f, a.touched) {
					fails[f.ID] = true
				}
			}
		}
		before := make(map[FlowID]*Aggregate, len(ids))
		for _, id := range ids {
			before[id] = net.Flow(id).agg
		}
		fresh := len(net.pending)
		sched.RunUntil(at)
		moved := 0
		for _, id := range ids {
			was := before[id]
			if was == nil {
				continue // new at this instant: its one trace is counted in fresh
			}
			if changed := net.Flow(id).agg != was; changed != fails[id] {
				t.Fatalf("t=%v flow %d: member check failed=%v but changed aggregate=%v", at, id, fails[id], changed)
			} else if changed {
				moved++
			}
		}
		traces += fresh + moved
		moversTotal += moved
		if err := net.VerifyMaxMin(1e-9); err != nil {
			t.Fatalf("t=%v: %v", at, err)
		}
	}

	join(1)
	recompute(1 * time.Second)
	join(viewers / 2)
	recompute(5 * time.Second)
	join(viewers - 1 - viewers/2)
	recompute(12 * time.Second)

	// The surge sits on one shortest path. Re-split it the way lies do:
	// at the ingress, then one hop further, each in its own instant, plus
	// an instant that only changes distances and one that withdraws.
	path := net.Flow(ids[0]).Path()
	if len(path) < 4 {
		t.Fatalf("crowd path %v too short to re-split at two hops", path)
	}
	resplit := func(node topo.NodeID, extra bool) {
		t.Helper()
		cur := net.tables[node]
		route, ok := cur.Get(pfx.Prefix)
		if !ok {
			t.Fatalf("router %d has no route to the crowd prefix", node)
		}
		route.Distance++
		hops := []fib.NextHop{route.NextHops[0]}
		if extra {
			for _, lid := range tp.OutLinks(node) {
				l := tp.Link(lid)
				if l.To != hops[0].Node && !tp.Node(l.To).Host && dist[l.To] <= dist[node] {
					hops = append(hops, fib.NextHop{Node: l.To, Link: lid, Weight: 1})
					break
				}
			}
			if len(hops) != 2 {
				t.Fatalf("router %d has no second way towards the prefix", node)
			}
		}
		route.NextHops = hops
		next := cur.Clone()
		if err := next.Install(route); err != nil {
			t.Fatal(err)
		}
		net.ApplyDiff(node, next, fib.DiffTables(node, cur, next))
	}
	resplit(path[0], true)
	recompute(14 * time.Second)
	resplit(path[1], true)
	recompute(14*time.Second + 10*time.Millisecond)
	for _, node := range path[:len(path)-1] {
		resplit(node, node == path[0] || node == path[1]) // distances only
	}
	recompute(14*time.Second + 20*time.Millisecond)
	resplit(path[0], false)
	recompute(20 * time.Second)

	if moversTotal == 0 {
		t.Fatal("the deltas moved nobody")
	}
	if traces != viewers+moversTotal {
		t.Fatalf("%d full traces, want one per viewer (%d) plus one per mover (%d)", traces, viewers, moversTotal)
	}
	if checkedTotal < 2*moversTotal {
		t.Fatalf("only %d members checked for %d movers: the stayers the parent re-traced are missing", checkedTotal, moversTotal)
	}
	t.Logf("%d viewers: %d full traces (%d movers); %d member checks stayed lookups", viewers, traces, moversTotal, checkedTotal-moversTotal)

	// A member that stays put costs lookups only: the check allocates
	// nothing, at one hop or at all of them.
	f := net.Flow(ids[len(ids)-1])
	for _, hops := range []uint64{1, 1 << 1, allHops} {
		if !net.forwardsAsRecorded(f.agg, f, hops) {
			t.Fatalf("settled member fails its check at hops %#x", hops)
		}
		if n := testing.AllocsPerRun(100, func() { net.forwardsAsRecorded(f.agg, f, hops) }); n != 0 {
			t.Fatalf("member check at hops %#x: %v allocs, want 0", hops, n)
		}
	}
	// And so does the full trace of a delivered flow, into the scratch.
	if n := testing.AllocsPerRun(100, func() { net.traceFlow(f) }); n != 0 {
		t.Fatalf("traceFlow: %v allocs, want 0", n)
	}
}

// TestDeliveredIntoMatchesDelivered checks the batched read against its
// one-flow form, including finished and never-issued ids.
func TestDeliveredIntoMatchesDelivered(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	n1 := tp.MustNode("n1")
	var ids []FlowID
	for i := 0; i < 10; i++ {
		ids = append(ids, net.AddFlow(n1, key("10.101.0.7", uint16(i)), float64(1+i)*1e5))
	}
	sched.RunUntil(3 * time.Second)
	net.RemoveFlow(ids[3])
	net.RemoveFlow(ids[9])
	if got := net.FlowCount(); got != 8 {
		t.Fatalf("FlowCount = %d after two of ten flows left, want 8", got)
	}
	if got := net.Stats().Flows; got != 8 {
		t.Fatalf("Stats().Flows = %d, want 8", got)
	}
	sched.RunUntil(3500 * time.Millisecond) // mid-interval: the read must advance the fluid model
	query := append([]FlowID{-1, 10, 1 << 40}, ids...)
	out := net.DeliveredInto(query, nil)
	for i, id := range query {
		bytes, ok := net.Delivered(id)
		gone := i < 3 || id == ids[3] || id == ids[9]
		if ok == gone {
			t.Fatalf("Delivered(%d) ok=%v, want %v", id, ok, !gone)
		}
		if gone {
			if out[i] != -1 || bytes != 0 || net.Flow(id) != nil {
				t.Fatalf("finished flow %d: batched %v, single %v, Flow %v", id, out[i], bytes, net.Flow(id))
			}
			continue
		}
		if out[i] != bytes || bytes <= 0 {
			t.Fatalf("flow %d: batched read %v, single read %v", id, out[i], bytes)
		}
	}
	if n := testing.AllocsPerRun(100, func() { out = net.DeliveredInto(query, out) }); n != 0 {
		t.Fatalf("DeliveredInto: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { net.Delivered(ids[0]) }); n != 0 {
		t.Fatalf("Delivered: %v allocs, want 0", n)
	}
}
