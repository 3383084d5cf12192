package scenarios

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fig2Cell is the paper's demo as a scenario cell: Figure 2's timeline on
// the Figure 1 network, long enough for the last wave to settle.
var fig2Cell = Spec{Topo: TopoSpec{Family: "fig1"}, Workload: "fig2", Duration: 60 * time.Second}

// TestFig2Cell pins the demo cell: it holds every matrix invariant at the
// paper's 62 viewers and sliced into 1000, and exists only on fig1.
func TestFig2Cell(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		t.Parallel()
		c, checks := compareSafely(t, fig2Cell)
		if checks < fig2CheckFloor {
			t.Errorf("%d safety checks over the controller arm, want >= %d", checks, fig2CheckFloor)
		}
		if len(c.Violations) > 0 {
			t.Fatalf("violations: %v", c.Violations)
		}
		if c.On.Lies != 3 || c.Off.Lies != 0 {
			t.Fatalf("lies on/off = %d/%d, want 3/0", c.On.Lies, c.Off.Lies)
		}
		if c.On.Sessions != 62 || c.Off.Sessions != 62 {
			t.Fatalf("sessions on/off = %d/%d, want 62", c.On.Sessions, c.Off.Sessions)
		}
	})
	t.Run("viewers-1000", func(t *testing.T) {
		t.Parallel()
		spec := fig2Cell
		spec.Viewers = 1000
		tp, prefix, err := spec.Topo.Build()
		if err != nil {
			t.Fatal(err)
		}
		e, err := buildEnv(tp, prefix)
		if err != nil {
			t.Fatal(err)
		}
		e.viewers = spec.Viewers
		waves, err := buildWaves(spec.Workload, e, spec.Duration, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		flows, demand := 0, 0.0
		for _, w := range waves {
			flows += w.Flows
			demand += float64(w.Flows) * w.Rate
		}
		if flows != 1000 || math.Abs(demand-31e6) > 1 {
			t.Fatalf("%d flows carrying %.0f bit/s, want 1000 carrying 31 Mbit/s: %+v", flows, demand, waves)
		}
		c, err := Compare(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Violations) > 0 {
			t.Fatalf("violations: %v", c.Violations)
		}
		if c.On.Sessions != 1000 {
			t.Fatalf("sessions = %d, want 1000", c.On.Sessions)
		}
	})
	t.Run("fig1-only", func(t *testing.T) {
		t.Parallel()
		spec := fig2Cell
		spec.Topo = TopoSpec{Family: "ring"}
		if _, err := Run(spec, true); err == nil || !strings.Contains(err.Error(), "fig1") {
			t.Fatalf("fig2 on ring: err = %v, want a build error naming fig1", err)
		}
	})
}
