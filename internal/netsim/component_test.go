package netsim

import (
	"fmt"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// multiLineTopo builds k disjoint two-node lines a{i} -(10M)- b{i} with one
// prefix attached at each b{i}. Traffic on different lines shares no link,
// so the incidence graph has exactly k connected components.
func multiLineTopo(k int) *topo.Topology {
	t := topo.New()
	for i := 0; i < k; i++ {
		a := t.AddNode(fmt.Sprintf("a%d", i))
		b := t.AddNode(fmt.Sprintf("b%d", i))
		t.AddLink(a, b, 1, topo.LinkOpts{Capacity: 10e6})
		t.AddPrefix(mustPfx(fmt.Sprintf("10.%d.0.0/16", 100+i)), fmt.Sprintf("p%d", i), topo.Attachment{Node: b})
	}
	return t
}

// runMultiLine drives k disjoint lines with two greedy flows each and
// returns the per-flow rates plus stats.
func runMultiLine(t *testing.T, k int) ([]float64, Stats) {
	t.Helper()
	tp := multiLineTopo(k)
	sched := event.NewScheduler()
	net := New(tp, sched, time.Second)
	var ids []FlowID
	for i := 0; i < k; i++ {
		a, b := tp.MustNode(fmt.Sprintf("a%d", i)), tp.MustNode(fmt.Sprintf("b%d", i))
		l, _ := tp.FindLink(a, b)
		pfx := mustPfx(fmt.Sprintf("10.%d.0.0/16", 100+i))
		ta := fib.NewTable(a)
		tb := fib.NewTable(b)
		if err := ta.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: b, Link: l.ID, Weight: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Install(fib.Route{Prefix: pfx, Local: true}); err != nil {
			t.Fatal(err)
		}
		net.SetTable(a, ta)
		net.SetTable(b, tb)
		dst := fmt.Sprintf("10.%d.0.1", 100+i)
		ids = append(ids, net.AddFlow(a, key(dst, uint16(2*i+1)), 0))
		ids = append(ids, net.AddFlow(a, key(dst, uint16(2*i+2)), 0))
	}
	sched.RunUntil(time.Second)
	if err := net.VerifyMaxMin(1e-9); err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, len(ids))
	for i, id := range ids {
		rates[i] = net.Flow(id).Rate()
	}
	return rates, net.Stats()
}

// TestReshareComponents checks that disjoint traffic regions are solved as
// independent components: the partition shows in the telemetry and every
// flow gets its line's exact fair share.
func TestReshareComponents(t *testing.T) {
	const k = 5
	rates, stats := runMultiLine(t, k)

	// The initial full solve covers all k disjoint lines at once, so at
	// least one solve must have split into k components.
	if stats.ReshareComponents < k {
		t.Fatalf("ReshareComponents = %d, want >= %d", stats.ReshareComponents, k)
	}
	for i, r := range rates {
		if r != 5e6 {
			t.Fatalf("flow %d rate = %v, want 5e6 (two greedy flows on a 10M line)", i, r)
		}
	}
}
