package controller

import (
	"reflect"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// TestAbileneFlashCrowd runs the whole machinery on the Abilene backbone:
// a flash crowd from Seattle towards the New York content prefix congests
// the northern route; the controller must spread it without breaking
// delivery, on a real ISP topology rather than the Figure 1 gadget.
func TestAbileneFlashCrowd(t *testing.T) {
	network := topo.Abilene(10e6, time.Millisecond)
	if err := network.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(SimOpts{
		Topology: network,
		Prefix:   "cdn-east",
		AttachAt: "NewYork",
		WithCtrl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 36 sessions x 0.5 Mbit/s = 18 Mbit/s from Seattle: no single
	// 10 Mbit/s path can carry it.
	err = sim.Runner.Schedule([]flashcrowd.Wave{
		{At: 2 * time.Second, Ingress: "Seattle", Flows: 12, Rate: 0.5e6},
		{At: 10 * time.Second, Ingress: "Seattle", Flows: 24, Rate: 0.5e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(60 * time.Second)

	if sim.Lies.LieCount() == 0 {
		t.Fatalf("controller never reacted on Abilene: %+v", sim.Ctrl.Decisions)
	}
	if len(sim.Ctrl.Errors) > 0 {
		t.Fatalf("controller errors: %v", sim.Ctrl.Errors)
	}
	if len(sim.Domain.Errors) > 0 {
		t.Fatalf("protocol errors: %v", sim.Domain.Errors)
	}
	// Every session must receive its full rate: 18 Mbit/s delivered.
	if tt := sim.Net.TotalThroughput(); tt < 18e6*0.99 {
		t.Fatalf("delivered %v bit/s, want 18e6 (flows starved)", tt)
	}
	if u := sim.Net.MaxUtilisation(); u > 1.0 {
		t.Fatalf("utilisation %v", u)
	}
	blocked := 0
	for _, id := range sim.Runner.Flows() {
		if f := sim.Net.Flow(id); f == nil || f.Blocked() {
			blocked++
		}
	}
	if blocked != 0 {
		t.Fatalf("%d flows blocked", blocked)
	}
}

// TestAbileneMinMaxPipeline checks the analytic pipeline end to end on
// Abilene: LP optimum realised by lies within quantisation error, and
// those lies are the ones the controller commits. te.RealizeMinMax
// prints the paper tables' lie columns, so they must equal the overlay
// lp-optimal proposes for the same demands, prefix for prefix.
func TestAbileneMinMaxPipeline(t *testing.T) {
	network := topo.Abilene(10e6, 0)
	demands := []topo.Demand{
		{Ingress: network.MustNode("Seattle"), PrefixName: "cdn-east", Volume: 9e6},
		{Ingress: network.MustNode("LosAngeles"), PrefixName: "cdn-east", Volume: 6e6},
		{Ingress: network.MustNode("Chicago"), PrefixName: "cdn-west", Volume: 7e6},
	}
	igp, err := te.ECMPOnlyUtilisation(network, demands)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := te.RealizeMinMax(network, demands)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Optimal >= igp {
		t.Fatalf("LP (%v) no better than IGP (%v): demands too weak to matter", fb.Optimal, igp)
	}
	if fb.Realised > fb.Optimal*1.25 {
		t.Fatalf("realisation %v too far above optimum %v", fb.Realised, fb.Optimal)
	}
	if fb.Lies == 0 {
		t.Fatalf("no lies needed? igp=%v optimal=%v", igp, fb.Optimal)
	}

	loads, err := te.IGPLoads(network, demands)
	if err != nil {
		t.Fatal(err)
	}
	alarm, ok := HottestLinkAlarm(network, loads)
	if !ok {
		t.Fatal("no capacitated link to raise an alarm on")
	}
	ctx := AnalyticPlanContext(network, demands, nil, AlarmEvent(alarm), Config{})
	plan, err := LPOptimalStrategy{}.Propose(ctx)
	if err != nil || plan == nil {
		t.Fatalf("lp-optimal proposed %v, %v", plan, err)
	}
	if !reflect.DeepEqual(plan.Lies, fb.PerPrefixLies) {
		t.Fatalf("lp-optimal commits %v, the tables print %v", plan.Lies, fb.PerPrefixLies)
	}
}

// TestTwoPrefixSurge exercises per-destination control under load: both
// CDN prefixes surge at once; the controller installs separate lie sets
// and both crowds are served.
func TestTwoPrefixSurge(t *testing.T) {
	network := topo.Abilene(10e6, time.Millisecond)
	sim, err := NewSim(SimOpts{
		Topology: network,
		Prefix:   "cdn-east",
		AttachAt: "NewYork",
		WithCtrl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Second runner for the west prefix, sharing the network and
	// reporting into the same controller.
	westRunner := *sim.Runner
	westRunner.Prefix = "cdn-west"
	westRunner.OnJoin = func(ingress topo.NodeID, rate float64) {
		sim.Ctrl.Handle(DemandEvent("cdn-west", ingress, rate))
	}
	westRunner.OnLeave = func(ingress topo.NodeID, rate float64) {
		sim.Ctrl.Handle(DemandEvent("cdn-west", ingress, -rate))
	}
	westRunner.OnFlowStarted = nil

	err = sim.Runner.Schedule([]flashcrowd.Wave{
		{At: 2 * time.Second, Ingress: "Seattle", Flows: 30, Rate: 0.5e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = westRunner.Schedule([]flashcrowd.Wave{
		{At: 4 * time.Second, Ingress: "Atlanta", Flows: 30, Rate: 0.5e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(60 * time.Second)

	if len(sim.Ctrl.Errors) > 0 {
		t.Fatalf("controller errors: %v", sim.Ctrl.Errors)
	}
	// 30 Mbit/s total demand must be fully delivered.
	if tt := sim.Net.TotalThroughput(); tt < 30e6*0.99 {
		t.Fatalf("delivered %v bit/s of 30e6", tt)
	}
}
