package scenarios

import (
	"slices"
	"sync/atomic"
	"testing"

	"fibbing.net/fibbing/internal/controller"
)

// TestScenarioMatrix sweeps the full cross product (6 topology families x
// 3 workload/failure schedules): every cell runs the whole Fibbing stack
// twice — controller on and off — and must satisfy the cross-run
// invariants: the workload saturates plain IGP, the controller beats it
// on settled utilisation or stall time, the realised routing approaches
// the LP optimum, lies touch only the target prefix, playback is smooth
// after convergence, and no protocol machinery errors. The safety oracle
// watches both runs: the controller's installed forwarding may loop or
// drop only where plain IGP does at the same instant.
func TestScenarioMatrix(t *testing.T) {
	specs := MatrixSpecs()
	if len(specs) < 12 {
		t.Fatalf("matrix has %d cells, want >= 12", len(specs))
	}
	var cells, checks atomic.Int64
	t.Cleanup(func() {
		// Non-vacuity, once every cell has run: the oracle must look at
		// the controller arms' forwarding at many instants.
		if n := checks.Load(); cells.Load() == int64(len(specs)) && n < matrixCheckFloor {
			t.Errorf("%d safety checks over the controller arms, want >= %d", n, matrixCheckFloor)
		}
	})
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cmp, n := compareSafely(t, spec)
			cells.Add(1)
			checks.Add(int64(n))
			for _, v := range cmp.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if t.Failed() {
				t.Logf("on:  %s", cmp.On.Summary())
				t.Logf("off: %s", cmp.Off.Summary())
			}
		})
	}
}

// TestScenarioRunDeterminism re-runs one cell and requires identical
// headline metrics: the whole stack — IGP flooding, fluid sharing, SNMP
// polling, controller reactions — must be reproducible.
func TestScenarioRunDeterminism(t *testing.T) {
	t.Parallel()
	spec, ok := SpecByName("ring/surge")
	if !ok {
		t.Fatal("ring/surge not in matrix")
	}
	a, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.SettledUtilisation != b.SettledUtilisation || a.Lies != b.Lies ||
		a.StallSeconds != b.StallSeconds || a.DeliveredMbit != b.DeliveredMbit ||
		len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("runs differ:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// TestScenarioWaveAccounting checks the per-wave delivery bookkeeping on
// a cell with held (churning) flows: every wave must be accounted, and
// with the controller on the delivered fraction must be high.
func TestScenarioWaveAccounting(t *testing.T) {
	t.Parallel()
	spec, ok := SpecByName("fig1/flash")
	if !ok {
		t.Fatal("fig1/flash not in matrix")
	}
	rep, err := Run(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Waves) < 2 {
		t.Fatalf("only %d waves accounted", len(rep.Waves))
	}
	var exp, got float64
	for _, w := range rep.Waves {
		if w.Expected <= 0 {
			t.Fatalf("wave at %v has expected %v", w.At, w.Expected)
		}
		exp += w.Expected
		got += w.Delivered
	}
	if frac := got / exp; frac < 0.9 {
		t.Fatalf("delivered fraction %.3f with controller, want >= 0.9", frac)
	}
	flows := 0
	for _, w := range rep.Waves {
		flows += w.Flows
	}
	if rep.Sessions != flows {
		t.Fatalf("sessions %d != scheduled flows %d", rep.Sessions, flows)
	}
}

// TestFatTree8PlansOptimally is the witness for the LP size guard. Fat-tree
// k=8 has 80 routers, more than any matrix topology, and while lp-optimal
// abstained above 48 routers the cell `fiblab -topo fattree -size 8` ran
// (seed 0) failed its settle invariant: settled 1.00 with 21.3 s of
// stalls inside the settle window, 47.7 s with -failure flap. That cell,
// the scale tier's fat-tree k=8 cell, and each with a flapping link must
// hold every invariant with lp-optimal winning at least once. The
// +hotlink variant is not gated: its controller-off twin settles at 0.88,
// so the workload does not stress the IGP path and the "does not stress"
// invariant fires whatever the controller does.
func TestFatTree8PlansOptimally(t *testing.T) {
	t.Parallel()
	i := slices.IndexFunc(ScaleSpecs(), func(s Spec) bool { return s.Topo.Family == "fattree" && s.Topo.Size == 8 })
	if i < 0 {
		t.Fatal("no fat-tree k=8 scale cell")
	}
	scale := ScaleSpecs()[i]
	scale.Name = "scale/" + scale.Name
	adhoc := Spec{Topo: TopoSpec{Family: "fattree", Size: 8}, Workload: "surge"}.withDefaults()
	for _, surge := range []Spec{adhoc, scale} {
		flap := surge
		flap.Name, flap.Failure = surge.Name+"+flap", "flap"
		for _, spec := range []Spec{surge, flap} {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				cmp, err := Compare(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range cmp.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				lp := func(d controller.Decision) bool { return d.Strategy == "lp-optimal" }
				if !slices.ContainsFunc(cmp.On.Decisions, lp) {
					t.Errorf("lp-optimal never won: %+v", cmp.On.Decisions)
				}
				if t.Failed() {
					t.Logf("on:  %s", cmp.On.Summary())
					t.Logf("off: %s", cmp.Off.Summary())
				}
			})
		}
	}
}

// TestScaleSpecsBuild validates the scaling cells without running them:
// the topologies generate cleanly and every spec is named and bounded.
func TestScaleSpecsBuild(t *testing.T) {
	specs := ScaleSpecs()
	if len(specs) == 0 {
		t.Fatal("no scale specs")
	}
	for _, s := range specs {
		if s.Name == "" || s.Duration <= 0 {
			t.Fatalf("spec missing defaults: %+v", s)
		}
		if _, _, err := s.Topo.Build(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}
