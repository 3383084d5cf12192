package controller

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/topo"
)

// TestWithdrawAfterSurge verifies the full lifecycle: lies appear during
// the surge and are withdrawn once the crowd leaves.
func TestWithdrawAfterSurge(t *testing.T) {
	sim, err := NewSim(SimOpts{WithCtrl: true})
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
}

func TestDemandTracking(t *testing.T) {
	sim, err := NewSim(SimOpts{WithCtrl: true})
	if err != nil {
		t.Fatal(err)
	}
	b := sim.Topo.MustNode("B")
	sim.Ctrl.ClientJoined("blue", b, 1e6)
	sim.Ctrl.ClientJoined("blue", b, 1e6)
	d := sim.Ctrl.Demands()
	if len(d) != 1 || d[0].Volume != 2e6 || d[0].Ingress != b {
		t.Fatalf("demands = %+v", d)
	}
	sim.Ctrl.ClientLeft("blue", b, 1e6)
	sim.Ctrl.ClientLeft("blue", b, 1e6)
	if len(sim.Ctrl.Demands()) != 0 {
		t.Fatalf("demands not drained: %+v", sim.Ctrl.Demands())
	}
}
