package qoe

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// starTopo builds the delivery tests' gadget: two ingress routers a and b
// feeding a shared router m, which reaches the prefix router d over the
// only capacitated link.
func starTopo(capacity float64) (*topo.Topology, topo.NodeID, topo.NodeID) {
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	m := tp.AddNode("m")
	d := tp.AddNode("d")
	tp.AddLink(a, m, 1, topo.LinkOpts{})
	tp.AddLink(b, m, 1, topo.LinkOpts{})
	tp.AddLink(m, d, 1, topo.LinkOpts{Capacity: capacity})
	tp.AddPrefix(netip.MustParsePrefix("10.0.0.0/24"), "vid", topo.Attachment{Node: d})
	return tp, a, b
}

// TestPredictPlanSingleMember pins the degenerate aggregate: one session,
// enough capacity — the viewer waits out the startup buffer once and
// never stalls.
func TestPredictPlanSingleMember(t *testing.T) {
	tp, a, _ := starTopo(10e6)
	views, err := fibbing.Evaluate(tp, "vid", nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := PredictPlan(tp,
		map[string]map[topo.NodeID]fibbing.RouteView{"vid": views},
		[]topo.Demand{{Ingress: a, PrefixName: "vid", Volume: 4e6}},
		Model{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", q.Sessions)
	}
	if q.StallSeconds != 0 {
		t.Errorf("uncongested single session stalls %.2fs, want 0", q.StallSeconds)
	}
	// Full rate: startup wait is exactly the startup buffer (2 media-s).
	if math.Abs(q.StartupWaitSeconds-2) > 1e-9 {
		t.Errorf("startup wait = %.3fs, want 2s", q.StartupWaitSeconds)
	}
}

// TestPredictPlanProtectsThinSessions pins the max-min solve: a thin
// crowd and a fat crowd share one saturated link, and max-min fair
// sharing must starve only the fat sessions. The expected figures are
// closed-form: with thin demand fully satisfied, the fat sessions split
// the residual capacity evenly.
func TestPredictPlanProtectsThinSessions(t *testing.T) {
	const cap = 10e6
	tp, a, b := starTopo(cap)
	views, err := fibbing.Evaluate(tp, "vid", nil)
	if err != nil {
		t.Fatal(err)
	}
	demands := []topo.Demand{
		{Ingress: a, PrefixName: "vid", Volume: 5.5e6}, // 40 thin sessions
		{Ingress: b, PrefixName: "vid", Volume: 5.5e6}, // 5 fat sessions
	}
	m := Model{Members: map[string]map[topo.NodeID]int{"vid": {a: 40, b: 5}}}
	q, err := PredictPlan(tp, map[string]map[topo.NodeID]fibbing.RouteView{"vid": views}, demands, m)
	if err != nil {
		t.Fatal(err)
	}
	if q.Sessions != 45 {
		t.Fatalf("sessions = %d, want 45", q.Sessions)
	}
	// Max-min by hand: thin rate 137.5k < fair share, so the 40 thin
	// sessions are whole (no stalls); the 5 fat sessions split the
	// residual 4.5 Mbit/s: phi = 0.9/1.1 of their 1.1 Mbit/s rate.
	f := (cap - 5.5e6) / 5 / (5.5e6 / 5)
	T := DefaultHorizon.Seconds()
	wantFatStall := 5 * (1 - f) * (T - 2/f)
	wantWait := 40*2.0 + 5*(2/f) // thin at full rate wait 2s, fat wait B/f
	if math.Abs(q.StallSeconds-wantFatStall) > 1e-6 {
		t.Errorf("stalls = %.6fs, want %.6fs (fat sessions only)", q.StallSeconds, wantFatStall)
	}
	if math.Abs(q.StartupWaitSeconds-wantWait) > 1e-6 {
		t.Errorf("startup wait = %.6fs, want %.6fs", q.StartupWaitSeconds, wantWait)
	}
}

// TestPredictPlanDeterministic runs the same congested prediction twice
// and expects bit-identical totals: paths come in walk order and links in
// LinkID order, so map layout must not leak into the floats.
func TestPredictPlanDeterministic(t *testing.T) {
	tp, a, b := starTopo(10e6)
	views, err := fibbing.Evaluate(tp, "vid", nil)
	if err != nil {
		t.Fatal(err)
	}
	demands := []topo.Demand{
		{Ingress: a, PrefixName: "vid", Volume: 7e6},
		{Ingress: b, PrefixName: "vid", Volume: 6e6},
	}
	m := Model{
		Members: map[string]map[topo.NodeID]int{"vid": {a: 17, b: 3}},
		Horizon: 17 * time.Second,
	}
	first, err := PredictPlan(tp, map[string]map[topo.NodeID]fibbing.RouteView{"vid": views}, demands, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := PredictPlan(tp, map[string]map[topo.NodeID]fibbing.RouteView{"vid": views}, demands, m)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("run %d: %+v != %+v", i, again, first)
		}
	}
}

// TestPredictPlanExactMaxMin pins the allocation across two bottlenecks,
// where sharing each link on its own goes wrong. Links x->y carry 10
// Mbit/s and y->d 4 Mbit/s; prefix far sits at d and near at y, and one
// 10 Mbit/s session each plays far from x, near from x and far from y.
// The far sessions split y->d at 2 Mbit/s each, so near takes the 8
// Mbit/s of x->y that far@x leaves: f = 0.8 waits 2.5 s and stalls
// 0.2 x 27.5 s, and each far session (f = 0.2) waits 10 s and stalls
// 0.8 x 20 s. Water-filling x->y alone would hand near 5 Mbit/s, for
// 45 s of stalls and 24 s of waiting.
func TestPredictPlanExactMaxMin(t *testing.T) {
	tp := topo.New()
	x := tp.AddNode("x")
	y := tp.AddNode("y")
	d := tp.AddNode("d")
	tp.AddLink(x, y, 1, topo.LinkOpts{Capacity: 10e6})
	tp.AddLink(y, d, 1, topo.LinkOpts{Capacity: 4e6})
	tp.AddPrefix(netip.MustParsePrefix("10.0.0.0/24"), "far", topo.Attachment{Node: d})
	tp.AddPrefix(netip.MustParsePrefix("10.0.1.0/24"), "near", topo.Attachment{Node: y})
	views := map[string]map[topo.NodeID]fibbing.RouteView{}
	for _, p := range []string{"far", "near"} {
		v, err := fibbing.Evaluate(tp, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		views[p] = v
	}
	demands := []topo.Demand{
		{Ingress: x, PrefixName: "far", Volume: 10e6},
		{Ingress: x, PrefixName: "near", Volume: 10e6},
		{Ingress: y, PrefixName: "far", Volume: 10e6},
	}
	q, err := PredictPlan(tp, views, demands, Model{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Sessions != 3 {
		t.Fatalf("sessions = %d, want 3", q.Sessions)
	}
	if math.Abs(q.StallSeconds-37.5) > 1e-9 || math.Abs(q.StartupWaitSeconds-22.5) > 1e-9 {
		t.Errorf("stalls %.6fs, startup wait %.6fs; want 37.5s and 22.5s", q.StallSeconds, q.StartupWaitSeconds)
	}
}

// TestPredictPlanWideECMP solves a plan whose paths cannot be listed:
// between the corners of a 16x16 grid of unit weights run C(30, 15),
// some 155 million, equal-cost paths. Half the traffic crosses each of
// the corner's two links and each of the prefix's two, and no other
// link carries as much, so the 10 sessions of 4 Mbit/s each get
// 10 Mbit/s / 5 = 2 Mbit/s.
func TestPredictPlanWideECMP(t *testing.T) {
	tp := topo.Grid(16, 16, 10e6)
	views, err := fibbing.Evaluate(tp, "corner", nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := PredictPlan(tp, map[string]map[topo.NodeID]fibbing.RouteView{"corner": views},
		[]topo.Demand{{Ingress: 0, PrefixName: "corner", Volume: 40e6}},
		Model{Members: map[string]map[topo.NodeID]int{"corner": {0: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	want := PredictSession(SessionConfig{Ladder: []float64{4e6}}, 2e6, DefaultHorizon)
	if q.Sessions != 10 || math.Abs(q.StallSeconds-10*want.StallSeconds) > 1e-9 ||
		math.Abs(q.StartupWaitSeconds-10*want.StartupWaitSeconds) > 1e-9 {
		t.Fatalf("PredictPlan = %+v, want 10 sessions at 2 Mbit/s: %+v each", q, want)
	}
}
