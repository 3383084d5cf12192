package controller

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// TestWithdrawAfterSurge verifies the full lifecycle: lies appear during
// the surge and are withdrawn once the crowd leaves, whichever way the
// strategy set is configured — withdrawal is a controller reaction, not
// a strategy a set could leave out.
func TestWithdrawAfterSurge(t *testing.T) {
	byName, err := ParseStrategies("localecmp,lpoptimal")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		strategies []Strategy
	}{
		{"stock default", nil},
		{"parsed by name", byName},
		{"passed as values", []Strategy{LocalECMPStrategy{}, LPOptimalStrategy{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := NewSim(SimOpts{WithCtrl: true, Strategies: tc.strategies})
			if err != nil {
				t.Fatal(err)
			}
			// A 20-second surge of 31 videos, then quiet.
			err = sim.Runner.Schedule([]flashcrowd.Wave{
				{At: 2 * time.Second, Ingress: topo.Fig1B, Flows: 31, Rate: 0.5e6, Hold: 20 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(15 * time.Second)
			if sim.Lies.LieCount() == 0 {
				t.Fatalf("no lies during surge")
			}
			sim.Run(60 * time.Second)
			if sim.Lies.LieCount() != 0 {
				t.Fatalf("lies not withdrawn after surge: %d", sim.Lies.LieCount())
			}
			withdrew := false
			for _, d := range sim.Ctrl.Decisions {
				if d.Strategy == "withdraw" {
					withdrew = true
				}
			}
			if !withdrew {
				t.Fatalf("no withdraw decision: %+v", sim.Ctrl.Decisions)
			}
			if len(sim.Ctrl.Errors) > 0 {
				t.Fatalf("controller errors: %v", sim.Ctrl.Errors)
			}
		})
	}
}

// withdrawRig is a controller on Fig. 1 with the paper's fB lies for
// the blue prefix installed and, when volume is positive, that much
// demand at B.
func withdrawRig(t *testing.T, volume float64) (*Controller, *southbound.LieManager) {
	t.Helper()
	fig1 := topo.Fig1(topo.Fig1Opts{})
	blue := topo.Fig1BluePrefixName
	aug, err := fibbing.AugmentAddPaths(fig1, blue, fibbing.Fig1DAG(fig1))
	if err != nil {
		t.Fatal(err)
	}
	mgr := southbound.NewLieManager(&countingInjector{}, ospf.ControllerIDBase)
	if _, err := mgr.Apply(blue, aug.Lies); err != nil {
		t.Fatal(err)
	}
	ctrl := New(fig1, mgr, func() time.Duration { return time.Minute })
	if volume > 0 {
		ctrl.Handle(DemandEvent(blue, fig1.MustNode("B"), volume))
	}
	return ctrl, mgr
}

// cleared is the clearing twin of a raised alarm.
func cleared(a monitor.Alarm) Event {
	a.Raised = false
	return AlarmEvent(a)
}

// TestWithdrawReaction holds both sides of the withdraw rule: when the
// last raised alarm clears, the installed lies go if and only if plain
// IGP routing of the current demands stays at or below
// DefaultWithdrawBelow. Either raise is stale (the lies already keep the
// network under target), so only the clears can react.
func TestWithdrawReaction(t *testing.T) {
	for _, tc := range []struct {
		name   string
		volume float64
		// above: plain IGP routing of volume exceeds DefaultWithdrawBelow.
		above bool
		// second raises an alarm on R3-C too, cleared only after the
		// first check.
		second bool
		want   bool // withdrawn on the B-R2 clear
	}{
		{name: "lies stay while plain IGP would exceed the threshold", volume: 5e6, above: true},
		{name: "lies stay while another link is raised", volume: 0.5e6, second: true},
		{name: "lies are withdrawn below the threshold", volume: 0.5e6, want: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, mgr := withdrawRig(t, tc.volume)
			fig1 := ctrl.topo
			igp, err := te.IGPLoads(fig1, ctrl.Demands())
			if err != nil {
				t.Fatal(err)
			}
			if above := te.MaxUtilOfLoads(fig1, igp) > DefaultWithdrawBelow; above != tc.above {
				t.Fatalf("plain IGP at %.3f: the case is on the wrong side of %.2f",
					te.MaxUtilOfLoads(fig1, igp), DefaultWithdrawBelow)
			}
			first := alarmOn(t, fig1, "B", "R2", 0.9)
			second := alarmOn(t, fig1, "R3", "C", 0.9)
			ctrl.Handle(AlarmEvent(first))
			if tc.second {
				ctrl.Handle(AlarmEvent(second))
			}
			lies := mgr.LieCount()
			ctrl.Handle(cleared(first))
			if withdrawn := mgr.LieCount() == 0; withdrawn != tc.want {
				t.Fatalf("after the B-R2 clear: %d of %d lies live, want withdrawn=%v (decisions %+v)",
					mgr.LieCount(), lies, tc.want, ctrl.Decisions)
			}
			if tc.second {
				// The last alarm clears: now the lies go.
				ctrl.Handle(cleared(second))
				if mgr.LieCount() != 0 {
					t.Fatalf("after the last clear: %d lies live", mgr.LieCount())
				}
			}
			if len(ctrl.Errors) > 0 {
				t.Fatalf("controller errors: %v", ctrl.Errors)
			}
			if mgr.LieCount() > 0 {
				if len(ctrl.Decisions) != 0 {
					t.Fatalf("decisions %+v, want none", ctrl.Decisions)
				}
				return
			}
			want := Decision{At: time.Minute, Prefix: topo.Fig1BluePrefixName, Strategy: "withdraw",
				Detail: "surge over; network back to pure IGP"}
			if len(ctrl.Decisions) != 1 || ctrl.Decisions[0] != want {
				t.Fatalf("decisions %+v, want [%+v]", ctrl.Decisions, want)
			}
		})
	}
}

// TestWithdrawBelowDefault: once the crowd has drained and the last
// alarm clears, the controller withdraws every lie.
func TestWithdrawBelowDefault(t *testing.T) {
	ctrl, mgr := withdrawRig(t, 0)
	alarm := alarmOn(t, ctrl.topo, "B", "R2", 0.9)
	ctrl.Handle(AlarmEvent(alarm))
	if mgr.LieCount() == 0 {
		t.Fatal("the lies left before the clear")
	}
	ctrl.Handle(cleared(alarm))
	if mgr.LieCount() != 0 || len(ctrl.Decisions) != 1 || ctrl.Decisions[0].Strategy != "withdraw" {
		t.Fatalf("the default threshold did not withdraw: %d lies, decisions %+v", mgr.LieCount(), ctrl.Decisions)
	}
}

func TestDemandTracking(t *testing.T) {
	sim, err := NewSim(SimOpts{WithCtrl: true})
	if err != nil {
		t.Fatal(err)
	}
	b := sim.Topo.MustNode("B")
	sim.Ctrl.Handle(DemandEvent("blue", b, 1e6))
	sim.Ctrl.Handle(DemandEvent("blue", b, 1e6))
	d := sim.Ctrl.Demands()
	if len(d) != 1 || d[0].Volume != 2e6 || d[0].Ingress != b {
		t.Fatalf("demands = %+v", d)
	}
	sim.Ctrl.Handle(DemandEvent("blue", b, -1e6))
	sim.Ctrl.Handle(DemandEvent("blue", b, -1e6))
	if len(sim.Ctrl.Demands()) != 0 {
		t.Fatalf("demands not drained: %+v", sim.Ctrl.Demands())
	}
}
