package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// Every experiment must run cleanly and pass its own embedded checks —
// this is the repository-level guarantee that the paper's numbers
// reproduce.
func TestAllExperimentsReproduce(t *testing.T) {
	results, err := All(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 13 {
		t.Fatalf("experiments = %d, want 13", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %q", r.ID)
		}
		seen[r.ID] = true
		if len(r.Check) > 0 {
			t.Errorf("%s: checks failed: %v", r.ID, r.Check)
		}
		if r.Table == nil {
			t.Errorf("%s: no table", r.ID)
		}
	}
	for _, id := range []string{
		"fig1a", "fig1b", "fig1c", "fig1d",
		"fig2-with", "fig2-without", "demo-qoe",
		"overhead-rsvpte", "minmax-optimality",
		"weightchange-vs-lie", "per-destination", "abr-extension", "reaction-latency",
	} {
		if !seen[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
	report := Report(results)
	if !strings.Contains(report, "fig2-with") || !strings.Contains(report, "B-R3") {
		t.Fatalf("report incomplete:\n%s", report[:min(len(report), 500)])
	}
	if strings.Contains(report, "CHECK FAILED") {
		t.Fatalf("report contains failed checks:\n%s", report)
	}
}

func TestFig1aPinsPaperPaths(t *testing.T) {
	r, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{"A>B>R2>C", "B>R2>C", "R1>R4>C"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1a missing path %s:\n%s", want, out)
		}
	}
}

func TestWeightChangeCostsMoreThanLie(t *testing.T) {
	r, err := WeightChangeVsLie()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Check) > 0 {
		t.Fatalf("checks: %v", r.Check)
	}
	var b strings.Builder
	r.Render(&b)
	if !strings.Contains(b.String(), "weight change") || !strings.Contains(b.String(), "inject lie") {
		t.Fatalf("table incomplete:\n%s", b.String())
	}
}

// fig2Demo is the demo pair All reads, run once for the Figure 2 tests.
var fig2Demo = sync.OnceValues(func() (*demo, error) { return runDemo(60 * time.Second) })

func demoPair(t *testing.T) *demo {
	t.Helper()
	d, err := fig2Demo()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFig2WithController is the paper's headline demo: as the flash crowd
// grows, the controller injects lies that add equal-cost paths and uneven
// splits, keeping every link below capacity while total delivered
// throughput keeps increasing. Reproduces Figure 2's shape.
func TestFig2WithController(t *testing.T) {
	d := demoPair(t)
	s := series(d.on.sim, fig2Links...)
	aR1, bR2, bR3 := s[0], s[1], s[2]

	// Phase 1 (0-15s): a single 0.5 Mbit/s video on B-R2; nothing on
	// B-R3 or A-R1.
	if v := bR2.At(10 * time.Second); math.Abs(v-62500) > 6300 {
		t.Fatalf("phase1 B-R2 = %v byte/s, want ~62500", v)
	}
	if v := bR3.At(10 * time.Second); v > 1000 {
		t.Fatalf("phase1 B-R3 = %v, want ~0", v)
	}
	if v := aR1.At(10 * time.Second); v > 1000 {
		t.Fatalf("phase1 A-R1 = %v, want ~0", v)
	}

	// Phase 2 (15-35s): 31 videos from S1; the controller must have
	// activated B-R3 (ECMP at B), with both B links carrying real load
	// and neither saturated.
	capacityBps := topo.DefaultFig1Capacity / 8 // byte/s
	p2r2 := bR2.MeanInWindow(25*time.Second, 34*time.Second)
	p2r3 := bR3.MeanInWindow(25*time.Second, 34*time.Second)
	if p2r3 < 0.2*capacityBps/2 {
		t.Fatalf("phase2 B-R3 = %v byte/s: ECMP at B not activated", p2r3)
	}
	total2 := p2r2 + p2r3
	want2 := 31 * flashRateBytes()
	if math.Abs(total2-want2) > 0.1*want2 {
		t.Fatalf("phase2 total B egress = %v, want ~%v", total2, want2)
	}
	if bR2.MaxInWindow(22*time.Second, 35*time.Second) > capacityBps {
		t.Fatalf("phase2 B-R2 above capacity")
	}

	// Phase 3 (35-60s): 31 more videos from S2; A-R1 must carry ~2/3 of
	// A's traffic, and all 62 videos must be delivered in full.
	p3a := aR1.MeanInWindow(48*time.Second, 59*time.Second)
	wantA := 31 * flashRateBytes() * 2 / 3
	if math.Abs(p3a-wantA) > 0.35*wantA {
		t.Fatalf("phase3 A-R1 = %v byte/s, want ~%v (2/3 of A's traffic)", p3a, wantA)
	}
	totalWant := 62 * flashRateBytes() * 8 // bit/s
	if tt := d.on.sim.Net.TotalThroughput(); math.Abs(tt-totalWant) > 0.02*totalWant {
		t.Fatalf("total delivered = %v bit/s, want ~%v (no starvation)", tt, totalWant)
	}
	rep := d.on.rep
	if rep.FinalUtilisation > 0.95 {
		t.Fatalf("max utilisation = %v: congestion not prevented", rep.FinalUtilisation)
	}

	// The controller's moves mirror the demo narrative: first local ECMP
	// at B, then the LP-optimal uneven split at A.
	if len(rep.Decisions) < 2 {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	if rep.Decisions[0].Strategy != "local-ecmp" {
		t.Fatalf("first decision = %+v, want local-ecmp", rep.Decisions[0])
	}
	foundLP := false
	for _, dec := range rep.Decisions {
		if dec.Strategy == "lp-optimal" && dec.Lies == 3 {
			foundLP = true
		}
	}
	if !foundLP {
		t.Fatalf("no 3-lie lp-optimal decision: %+v", rep.Decisions)
	}
	if rep.Lies != 3 {
		t.Fatalf("live lies = %d, want 3 (fB + 2xfA)", rep.Lies)
	}
	if len(rep.ControllerErrors) > 0 {
		t.Fatalf("controller errors: %v", rep.ControllerErrors)
	}
}

func flashRateBytes() float64 { return 0.5e6 / 8 }

// TestFig2WithoutController is the counterfactual: with the controller
// disabled, the second wave saturates B-R2 and flows starve.
func TestFig2WithoutController(t *testing.T) {
	d := demoPair(t)
	bR3 := series(d.off.sim, fig2Links...)[2]
	if v := bR3.Max(); v > 1000 {
		t.Fatalf("B-R3 used without controller: %v", v)
	}
	// 62 videos x 0.5 Mbit/s = 31 Mbit/s demanded; only 16 fits through
	// B-R2. Delivered throughput must be capped at the bottleneck.
	if tt := d.off.sim.Net.TotalThroughput(); tt > topo.DefaultFig1Capacity*1.01 {
		t.Fatalf("throughput %v exceeds the single-path bottleneck", tt)
	}
	if u := d.off.rep.FinalUtilisation; u < 0.99 {
		t.Fatalf("bottleneck not saturated: %v", u)
	}
	if d.off.rep.Lies != 0 || len(d.off.rep.Decisions) != 0 {
		t.Fatalf("disabled controller acted: %+v", d.off.rep.Decisions)
	}
}

// TestQoEWithVsWithout reproduces the demo's observable result: smooth
// playback with Fibbing, stuttering without.
func TestQoEWithVsWithout(t *testing.T) {
	d := demoPair(t)
	aggWith := video.AggregateQoE(d.on.sim.QoE())
	aggWithout := video.AggregateQoE(d.off.sim.QoE())
	if aggWith.Sessions != 62 || aggWithout.Sessions != 62 {
		t.Fatalf("sessions = %d / %d", aggWith.Sessions, aggWithout.Sessions)
	}
	if aggWith.MeanRebuffer > 0.01 {
		t.Fatalf("with controller: rebuffer %v, want ~0 (smooth)", aggWith.MeanRebuffer)
	}
	if aggWithout.MeanRebuffer < 0.1 {
		t.Fatalf("without controller: rebuffer %v, want substantial stutter", aggWithout.MeanRebuffer)
	}
	if aggWithout.TotalStalls == 0 {
		t.Fatalf("without controller: no stalls recorded")
	}
}
