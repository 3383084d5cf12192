package controller

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/topo"
)

// TestLinkFailureDuringAugmentedState is the stress case beyond the demo:
// the controller has already installed fB (ECMP at B); then the B-R3 link
// — which only exists in the forwarding state because of the lie — fails.
// The IGP must fall back to B-R2 without blackholing, and the controller —
// which learns of the failure from IGP flooding at dead-interval timescale
// — must re-plan around the dead link so full delivery returns. Healing
// must leave the network consistent (no stale failed-link state, no
// errors) with delivery still complete.
func TestLinkFailureDuringAugmentedState(t *testing.T) {
	sim, err := NewSim(SimOpts{WithCtrl: true})
	if err != nil {
		t.Fatal(err)
	}
	// 31 videos at B: enough to trigger the controller's local-ecmp move.
	err = sim.Runner.Schedule([]flashcrowd.Wave{
		{At: time.Second, Ingress: topo.Fig1B, Flows: 31, Rate: 0.5e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	bR3, err := sim.Net.SeriesBetween("B", "R3") // recorded from here on
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(15 * time.Second)
	if sim.Lies.LieCount() == 0 {
		t.Fatalf("controller did not react to the surge")
	}
	if bR3.At(14*time.Second) == 0 {
		t.Fatalf("B-R3 idle despite the lie")
	}

	// Fail B-R3 (control + data plane).
	if err := sim.SetLinkState("B", "R3", false); err != nil {
		t.Fatal(err)
	}
	sim.Run(30 * time.Second)

	// All traffic must be back on B-R2, capped at its capacity, with no
	// flow permanently blocked.
	blocked := 0
	for _, id := range sim.Runner.Flows() {
		if f := sim.Net.Flow(id); f == nil || f.Blocked() {
			blocked++
		}
	}
	if blocked != 0 {
		t.Fatalf("%d flows blackholed after failure", blocked)
	}
	if rate := bR3.At(29 * time.Second); rate != 0 {
		t.Fatalf("B-R3 still carrying %v byte/s while down", rate)
	}

	// The controller heard about the failure from the IGP (the dead
	// interval expires ~4s in) and reacted with a failover plan.
	reacted := false
	for _, d := range sim.Ctrl.Decisions {
		if d.At >= 15*time.Second {
			reacted = true
		}
	}
	if !reacted {
		t.Fatalf("controller never reacted to the failure: %+v", sim.Ctrl.Decisions)
	}

	// Heal: the link returns; the controller's replanned routing already
	// delivers everything, so the only requirement is consistency.
	if err := sim.SetLinkState("B", "R3", true); err != nil {
		t.Fatal(err)
	}
	sim.Run(50 * time.Second)
	if tt := sim.Net.TotalThroughput(); tt < 31*0.5e6*0.99 {
		t.Fatalf("full delivery not restored: %v", tt)
	}
	if len(sim.Ctrl.failed) != 0 {
		t.Fatalf("failed-link set not cleared after heal: %v", sim.Ctrl.failed)
	}
	if len(sim.Ctrl.Errors) > 0 {
		t.Fatalf("controller errors: %v", sim.Ctrl.Errors)
	}
	if len(sim.Domain.Errors) > 0 {
		t.Fatalf("protocol errors: %v", sim.Domain.Errors)
	}
}

// TestSimLinkChangesReachBFD: Sim.SetLinkState tells the BFD engine as
// well as the IGP and the data plane, so a failure on an established
// session is announced to the controller within one detection time, far
// ahead of the IGP's dead interval, and the heal is announced too.
func TestSimLinkChangesReachBFD(t *testing.T) {
	sim, err := NewSim(SimOpts{WithCtrl: true, BFD: &bfd.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Second)
	if err := sim.SetLinkState("B", "R3", false); err != nil {
		t.Fatal(err)
	}
	sim.Run(2*time.Second + sim.BFD.DetectTime())
	if st := sim.BFD.Stats(); st.DownEvents != 1 || len(sim.Ctrl.failed) != 1 {
		t.Fatalf("%d BFD downs and failed set %v one detection time after the failure, want 1 and B-R3",
			st.DownEvents, sim.Ctrl.failed)
	}
	if err := sim.SetLinkState("B", "R3", true); err != nil {
		t.Fatal(err)
	}
	sim.Run(3 * time.Second)
	if st := sim.BFD.Stats(); st.UpEvents != 1 || len(sim.Ctrl.failed) != 0 {
		t.Fatalf("%d BFD ups and failed set %v after the heal, want 1 and none", st.UpEvents, sim.Ctrl.failed)
	}
}
