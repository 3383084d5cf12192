package netsim

import (
	"math"
	"net/netip"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// lineTopo builds n1 -(10M)- n2 -(6M)- n3 with prefixes p1@n2, p2@n3.
func lineTopo() *topo.Topology {
	t := topo.New()
	n1 := t.AddNode("n1")
	n2 := t.AddNode("n2")
	n3 := t.AddNode("n3")
	t.AddLink(n1, n2, 1, topo.LinkOpts{Capacity: 10e6})
	t.AddLink(n2, n3, 1, topo.LinkOpts{Capacity: 6e6})
	t.AddPrefix(mustPfx("10.100.0.0/16"), "p1", topo.Attachment{Node: n2})
	t.AddPrefix(mustPfx("10.101.0.0/16"), "p2", topo.Attachment{Node: n3})
	return t
}

// installLineTables wires the obvious routes for lineTopo.
func installLineTables(t *testing.T, net *Network, tp *topo.Topology) {
	t.Helper()
	n1, n2, n3 := tp.MustNode("n1"), tp.MustNode("n2"), tp.MustNode("n3")
	l12, _ := tp.FindLink(n1, n2)
	l23, _ := tp.FindLink(n2, n3)

	t1 := fib.NewTable(n1)
	t2 := fib.NewTable(n2)
	t3 := fib.NewTable(n3)
	for _, in := range []error{
		t1.Install(fib.Route{Prefix: mustPfx("10.100.0.0/16"), NextHops: []fib.NextHop{{Node: n2, Link: l12.ID, Weight: 1}}}),
		t1.Install(fib.Route{Prefix: mustPfx("10.101.0.0/16"), NextHops: []fib.NextHop{{Node: n2, Link: l12.ID, Weight: 1}}}),
		t2.Install(fib.Route{Prefix: mustPfx("10.100.0.0/16"), Local: true}),
		t2.Install(fib.Route{Prefix: mustPfx("10.101.0.0/16"), NextHops: []fib.NextHop{{Node: n3, Link: l23.ID, Weight: 1}}}),
		t3.Install(fib.Route{Prefix: mustPfx("10.101.0.0/16"), Local: true}),
	} {
		if in != nil {
			t.Fatal(in)
		}
	}
	net.SetTable(n1, t1)
	net.SetTable(n2, t2)
	net.SetTable(n3, t3)
}

func key(dst string, port uint16) fib.FlowKey {
	return fib.FlowKey{
		Src: mustAddr("10.0.0.1"), Dst: mustAddr(dst),
		SrcPort: port, DstPort: 5000, Proto: 6,
	}
}

func TestSingleCappedFlow(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", 1), 2e6)
	l12, _ := tp.FindLink(tp.MustNode("n1"), tp.MustNode("n2"))
	s := net.Series(l12.ID) // asked for before the run: recorded from 0
	sched.RunUntil(10 * time.Second)

	// 2 Mbit/s for 10 s = 2.5e6 bytes.
	oct := net.Octets(l12.ID)
	if math.Abs(float64(oct)-2.5e6) > 1e4 {
		t.Fatalf("octets = %d, want ~2.5e6", oct)
	}
	// Series sampled at 250 KB/s while the flow runs.
	if v := s.At(5 * time.Second); math.Abs(v-250e3) > 1e3 {
		t.Fatalf("series at 5s = %v, want 250e3", v)
	}
}

func TestGreedyFlowsShareFairly(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	f1 := net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", 1), 0)
	f2 := net.AddFlow(tp.MustNode("n1"), key("10.100.0.2", 2), 0)
	sched.RunUntil(time.Second)
	r1, r2 := net.Flow(f1).Rate(), net.Flow(f2).Rate()
	if math.Abs(r1-5e6) > 1 || math.Abs(r2-5e6) > 1 {
		t.Fatalf("rates = %v, %v; want 5e6 each", r1, r2)
	}
}

func TestCappedPlusGreedy(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	capped := net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", 1), 2e6)
	greedy := net.AddFlow(tp.MustNode("n1"), key("10.100.0.2", 2), 0)
	sched.RunUntil(time.Second)
	if r := net.Flow(capped).Rate(); math.Abs(r-2e6) > 1 {
		t.Fatalf("capped rate = %v", r)
	}
	if r := net.Flow(greedy).Rate(); math.Abs(r-8e6) > 1 {
		t.Fatalf("greedy rate = %v, want 8e6", r)
	}
}

// TestMaxMinTextbook checks the classic two-link example: C crosses both
// links and is bottlenecked at 3 Mbit/s on the 6 Mbit/s link shared with
// B; A then gets the leftover 7 Mbit/s on the first link.
func TestMaxMinTextbook(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	fa := net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", 1), 0) // n1->n2
	fb := net.AddFlow(tp.MustNode("n2"), key("10.101.0.1", 2), 0) // n2->n3
	fc := net.AddFlow(tp.MustNode("n1"), key("10.101.0.2", 3), 0) // n1->n2->n3
	sched.RunUntil(time.Second)
	if r := net.Flow(fc).Rate(); math.Abs(r-3e6) > 1 {
		t.Fatalf("C = %v, want 3e6", r)
	}
	if r := net.Flow(fb).Rate(); math.Abs(r-3e6) > 1 {
		t.Fatalf("B = %v, want 3e6", r)
	}
	if r := net.Flow(fa).Rate(); math.Abs(r-7e6) > 1 {
		t.Fatalf("A = %v, want 7e6", r)
	}
	if u := net.MaxUtilisation(); u > 1+1e-9 {
		t.Fatalf("utilisation %v > 1", u)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	// Diamond: s -> {u, v} -> d with a 2:1 weighted route at s.
	tp := topo.New()
	s := tp.AddNode("s")
	u := tp.AddNode("u")
	v := tp.AddNode("v")
	d := tp.AddNode("d")
	lsu, _ := tp.AddLink(s, u, 1, topo.LinkOpts{Capacity: 100e6})
	lsv, _ := tp.AddLink(s, v, 1, topo.LinkOpts{Capacity: 100e6})
	lud, _ := tp.AddLink(u, d, 1, topo.LinkOpts{Capacity: 100e6})
	lvd, _ := tp.AddLink(v, d, 1, topo.LinkOpts{Capacity: 100e6})
	pfx := mustPfx("10.100.0.0/16")
	tp.AddPrefix(pfx, "p", topo.Attachment{Node: d})

	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	ts := fib.NewTable(s)
	if err := ts.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{
		{Node: u, Link: lsu, Weight: 2},
		{Node: v, Link: lsv, Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	tu := fib.NewTable(u)
	if err := tu.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: d, Link: lud, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	tv := fib.NewTable(v)
	if err := tv.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: d, Link: lvd, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	td := fib.NewTable(d)
	if err := td.Install(fib.Route{Prefix: pfx, Local: true}); err != nil {
		t.Fatal(err)
	}
	net.SetTable(s, ts)
	net.SetTable(u, tu)
	net.SetTable(v, tv)
	net.SetTable(d, td)

	const flows = 3000
	for i := 0; i < flows; i++ {
		net.AddFlow(s, key("10.100.0.9", uint16(i)), 1e3)
	}
	sched.RunUntil(time.Second)
	rates := net.LinkRates()
	fracU := rates[lsu] / (rates[lsu] + rates[lsv])
	if math.Abs(fracU-2.0/3) > 0.03 {
		t.Fatalf("weighted ECMP split = %.3f, want ~0.667", fracU)
	}
}

func TestRerouteOnTableChange(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	id := net.AddFlow(tp.MustNode("n1"), key("10.101.0.1", 7), 1e6)
	sched.RunUntil(5 * time.Second)
	if got := len(net.Flow(id).Path()); got != 3 {
		t.Fatalf("path len = %d, want 3 nodes", got)
	}

	// Break n1's route: p2 now unreachable from n1.
	n1 := tp.MustNode("n1")
	t1 := fib.NewTable(n1)
	net.SetTable(n1, t1)
	sched.RunUntil(6 * time.Second)
	if !net.Flow(id).Blocked() {
		t.Fatalf("flow should be blocked after route removal")
	}
	if r := net.Flow(id).Rate(); r != 0 {
		t.Fatalf("blocked flow has rate %v", r)
	}

	// Counters must stop increasing.
	l12, _ := tp.FindLink(n1, tp.MustNode("n2"))
	before := net.Octets(l12.ID)
	sched.RunUntil(10 * time.Second)
	if after := net.Octets(l12.ID); after != before {
		t.Fatalf("blocked flow kept counting: %d -> %d", before, after)
	}

	// Restore and verify delivery resumes.
	installLineTables(t, net, tp)
	sched.RunUntil(12 * time.Second)
	if net.Flow(id).Blocked() {
		t.Fatalf("flow still blocked after restore")
	}
	if r := net.Flow(id).Rate(); math.Abs(r-1e6) > 1 {
		t.Fatalf("restored rate = %v", r)
	}
}

func TestRemoveFlowFreesCapacity(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	a := net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", 1), 0)
	b := net.AddFlow(tp.MustNode("n1"), key("10.100.0.2", 2), 0)
	sched.RunUntil(time.Second)
	if r := net.Flow(a).Rate(); math.Abs(r-5e6) > 1 {
		t.Fatalf("pre-removal rate = %v", r)
	}
	net.RemoveFlow(b)
	sched.RunUntil(2 * time.Second)
	if r := net.Flow(a).Rate(); math.Abs(r-10e6) > 1 {
		t.Fatalf("post-removal rate = %v, want full 10e6", r)
	}
	if net.FlowCount() != 1 {
		t.Fatalf("FlowCount = %d", net.FlowCount())
	}
}

// TestVerifyMaxMinChecksMembership: leaves from the front, middle and back
// of one aggregate keep its slot index whole, and VerifyMaxMin catches a
// member in the wrong slot and a weight that is not the member count.
func TestVerifyMaxMinChecksMembership(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	var ids []FlowID
	for i := 0; i < 8; i++ {
		ids = append(ids, net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", uint16(i)), 1e5))
	}
	sched.RunUntil(time.Second)
	for _, i := range []int{0, 4, 7} {
		net.RemoveFlow(ids[i])
	}
	sched.RunUntil(2 * time.Second)
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}
	a := net.Flow(ids[1]).agg
	if a.weight != 5 {
		t.Fatalf("aggregate of %d members after 3 of 8 left, want 5", a.weight)
	}
	m := a.members
	m[0], m[1] = m[1], m[0]
	if err := net.VerifyMaxMin(1e-9); err == nil {
		t.Fatal("two members in each other's slots passed")
	}
	m[0], m[1] = m[1], m[0]
	a.weight++
	if err := net.VerifyMaxMin(1e-9); err == nil {
		t.Fatal("a weight above the member count passed")
	}
}

func TestDeliveredBytesAccumulate(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	id := net.AddFlow(tp.MustNode("n1"), key("10.100.0.1", 1), 4e6)
	sched.RunUntil(8 * time.Second)
	net.advance()
	got := net.Flow(id).DeliveredBytes()
	want := 4e6 / 8 * 8 // 4 Mbit/s for 8 s = 4e6 bytes
	if math.Abs(got-want) > 1e3 {
		t.Fatalf("delivered = %v, want %v", got, want)
	}
}

func TestUtilisationNeverExceedsOne(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	for i := 0; i < 50; i++ {
		net.AddFlow(tp.MustNode("n1"), key("10.101.0.3", uint16(i)), 1e6)
	}
	sched.RunUntil(2 * time.Second)
	if u := net.MaxUtilisation(); u > 1+1e-9 {
		t.Fatalf("utilisation = %v", u)
	}
	// 50 x 1 Mbit/s demand into a 6 Mbit/s bottleneck: total delivery
	// equals the bottleneck capacity.
	if tt := net.TotalThroughput(); math.Abs(tt-6e6) > 1 {
		t.Fatalf("total throughput = %v, want 6e6", tt)
	}
}

func BenchmarkReshare100Flows(b *testing.B) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	tt := &testing.T{}
	installLineTables(tt, net, tp)
	for i := 0; i < 100; i++ {
		net.AddFlow(tp.MustNode("n1"), key("10.101.0.3", uint16(i)), 1e6)
	}
	sched.RunUntil(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lid := range net.links {
			net.dirty[lid] = true
		}
		net.reshare()
	}
}

// TestRateSumsIgnoreMapOrder puts seven aggregates whose rates do not add
// associatively on one link and requires LinkRates, MaxUtilisation and
// TotalThroughput to return the same bits on every call, equal to the sum
// in aggregate-id order: the reports' utilisation figures derive from
// these sums, and map order would move their last bits run to run.
func TestRateSumsIgnoreMapOrder(t *testing.T) {
	tp := lineTopo()
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	installLineTables(t, net, tp)
	caps := []float64{1e6 / 3, 1e6 / 7, 1e5 + 0.1, 1e6 / 11, 2e5 + 0.2, 1e6 / 13, 3e5 + 0.3}
	for i, c := range caps {
		net.AddFlow(tp.MustNode("n1"), key("10.101.0.7", uint16(i)), c)
	}
	sched.RunUntil(time.Second)
	if got := net.AggregateCount(); got != len(caps) {
		t.Fatalf("%d aggregates, want one per cap (%d)", got, len(caps))
	}
	sum := func(order []float64) float64 {
		s := 0.0
		for _, c := range order {
			s += c
		}
		return s
	}
	idOrder := sum(caps) // the flows' aggregates were minted in cap order
	sensitive := false
	for i := range caps {
		sensitive = sensitive || sum(append(slices.Clone(caps[i:]), caps[:i]...)) != idOrder
	}
	if !sensitive {
		t.Fatal("the caps sum to the same bits in every rotation: the test cannot fail")
	}
	l23, _ := tp.FindLink(tp.MustNode("n2"), tp.MustNode("n3"))
	for i := 0; i < 100; i++ {
		if got := net.LinkRates()[l23.ID]; got != idOrder {
			t.Fatalf("call %d: LinkRates on n2-n3 = %v, sum in aggregate-id order %v", i, got, idOrder)
		}
		if got := net.TotalThroughput(); got != idOrder {
			t.Fatalf("call %d: TotalThroughput = %v, sum in aggregate-id order %v", i, got, idOrder)
		}
		if got, want := net.MaxUtilisation(), idOrder/l23.Capacity; got != want {
			t.Fatalf("call %d: MaxUtilisation = %v, want %v", i, got, want)
		}
	}
}

// TestFillStopsOffLinks holds Fill's stop rule on a component laid out by
// hand: the textbook two-link problem above plus an uncapped aggregate
// that crosses no link. Filling ends with the textbook rates and leaves
// the stray aggregate the rate it came with; a loop that waited for it
// to freeze would never end.
func TestFillStopsOffLinks(t *testing.T) {
	a, b, c := &Aggregate{weight: 1}, &Aggregate{weight: 1}, &Aggregate{weight: 1}
	stray := &Aggregate{weight: 1, rate: 5}
	comp := &component{
		aggs: []*Aggregate{a, b, c, stray},
		links: []solveLink{
			{capacity: 10e6, members: []*Aggregate{a, c}},
			{capacity: 6e6, members: []*Aggregate{b, c}},
		},
		frozen: make([]bool, 4),
	}
	for i, x := range comp.aggs {
		x.solveIdx = i
	}
	Fill(comp)
	for _, x := range []struct {
		name string
		got  float64
		want float64
	}{{"A", a.rate, 7e6}, {"B", b.rate, 3e6}, {"C", c.rate, 3e6}, {"stray", stray.rate, 5}} {
		if math.Abs(x.got-x.want) > 1e-6 {
			t.Errorf("%s = %v, want %v", x.name, x.got, x.want)
		}
	}
}
