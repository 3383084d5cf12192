package video

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

// abrKey is the rig's flow; tests adding more vary its source port.
var abrKey = fib.FlowKey{
	Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.100.0.1"),
	SrcPort: 42, DstPort: 8080, Proto: 6,
}

// abrRig builds a 2-router network with a configurable bottleneck and one
// ABR session across it.
func abrRig(t *testing.T, capacity float64) (*event.Scheduler, *netsim.Network, *ABRSimSession) {
	t.Helper()
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	ab, _ := tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: capacity})
	pfx := netip.MustParsePrefix("10.100.0.0/16")
	tp.AddPrefix(pfx, "p", topo.Attachment{Node: b})

	sched := event.NewScheduler()
	net := netsim.New(tp, sched, time.Second)
	ta := fib.NewTable(a)
	if err := ta.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: b, Link: ab, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	tb := fib.NewTable(b)
	if err := tb.Install(fib.Route{Prefix: pfx, Local: true}); err != nil {
		t.Fatal(err)
	}
	net.SetTable(a, ta)
	net.SetTable(b, tb)

	id := net.AddFlow(a, abrKey, 0)
	sess := NewABRSessionPool(sched, net, ABRConfig{}).Attach(id)
	return sched, net, sess
}

func TestABRClimbsToTopRungWithHeadroom(t *testing.T) {
	sched, _, sess := abrRig(t, 10e6) // 10 Mbit/s for a 1 Mbit/s top rung
	sched.RunUntil(60 * time.Second)
	q := sess.QoE()
	if sess.Rung() != 2 {
		t.Fatalf("rung = %d, want top (2); qoe %v", sess.Rung(), q)
	}
	if q.TopRungShare < 0.6 {
		t.Fatalf("top-rung share = %v, want most of the session", q.TopRungShare)
	}
	if q.Stalls != 0 {
		t.Fatalf("stalled with 10x headroom: %+v", q)
	}
	if q.Switches == 0 {
		t.Fatalf("never switched up")
	}
}

func TestABRStaysLowWhenStarved(t *testing.T) {
	sched, _, sess := abrRig(t, 0.3e6) // only the 200k rung fits
	sched.RunUntil(60 * time.Second)
	q := sess.QoE()
	if sess.Rung() != 0 {
		t.Fatalf("rung = %d, want 0 under starvation", sess.Rung())
	}
	if q.TopRungShare > 0.05 {
		t.Fatalf("top-rung share = %v under starvation", q.TopRungShare)
	}
	if math.Abs(q.MeanBitrate-0.2e6) > 0.05e6 {
		t.Fatalf("mean bitrate = %v, want ~200k", q.MeanBitrate)
	}
}

func TestABRDownshiftsWhenCapacityDrops(t *testing.T) {
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 10e6})
	pfx := netip.MustParsePrefix("10.100.0.0/16")
	tp.AddPrefix(pfx, "p", topo.Attachment{Node: b})
	sched := event.NewScheduler()
	net := netsim.New(tp, sched, time.Second)
	ab, _ := tp.FindLink(a, b)
	ta := fib.NewTable(a)
	if err := ta.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: b, Link: ab.ID, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	tb := fib.NewTable(b)
	if err := tb.Install(fib.Route{Prefix: pfx, Local: true}); err != nil {
		t.Fatal(err)
	}
	net.SetTable(a, ta)
	net.SetTable(b, tb)
	key := fib.FlowKey{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.100.0.1"), SrcPort: 1, DstPort: 1, Proto: 6}
	id := net.AddFlow(a, key, 0)
	sess := NewABRSessionPool(sched, net, ABRConfig{}).Attach(id)

	sched.RunUntil(30 * time.Second)
	if sess.Rung() != 2 {
		t.Fatalf("precondition: rung %d", sess.Rung())
	}
	// 79 competing greedy flows crush the session's share to ~125 kbit/s,
	// well below the lowest rung's comfort zone.
	for i := 0; i < 79; i++ {
		k := key
		k.SrcPort = uint16(100 + i)
		net.AddFlow(a, k, 0)
	}
	sched.RunUntil(150 * time.Second)
	if sess.Rung() != 0 {
		t.Fatalf("rung = %d after congestion, want 0", sess.Rung())
	}
}

func TestAggregateABRQoE(t *testing.T) {
	qs := []ABRQoE{
		{QoE: QoE{Stalls: 1}, MeanBitrate: 1e6, TopRungShare: 1, Switches: 2},
		{QoE: QoE{}, MeanBitrate: 0.5e6, TopRungShare: 0, Switches: 0},
	}
	a := AggregateABRQoE(qs)
	if a.Sessions != 2 || a.Switches != 2 || a.TotalStalls != 1 {
		t.Fatalf("agg = %+v", a)
	}
	if math.Abs(a.MeanBitrate-0.75e6) > 1 || math.Abs(a.TopRungShare-0.5) > 1e-9 {
		t.Fatalf("agg = %+v", a)
	}
	if AggregateABRQoE(nil).Sessions != 0 {
		t.Fatalf("empty aggregate broken")
	}
}
