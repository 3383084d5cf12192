package te

// Scale-invariance tests: the planner numerics used to stall above
// ~1 Gbit/s demand volumes (wrong simplex optima at large coefficient
// magnitudes — the old ROADMAP ceiling). These tests pin the fix: the
// min-max solve must produce the same relative answer whether volumes
// are expressed in Mbit/s or 100 Gbit/s, and the raw simplex must
// survive badly-conditioned tableaus.

import (
	"math"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/topo"
)

func TestProblemScalePowerOfTwo(t *testing.T) {
	tp := topo.Abilene(10e9, 0)
	demands := []topo.Demand{
		{Ingress: tp.MustNode("Seattle"), PrefixName: "cdn-east", Volume: 9e9},
	}
	s := ProblemScale(tp, demands)
	if s <= 0 || math.Log2(s) != math.Trunc(math.Log2(s)) {
		t.Fatalf("scale %v is not a positive power of two", s)
	}
	if s > 10e9 || 2*s <= 10e9 {
		t.Fatalf("scale %v is not the largest power of two <= 10e9", s)
	}
}

func TestProblemScaleDegenerate(t *testing.T) {
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	tp.AddLink(a, b, 1, topo.LinkOpts{}) // uncapacitated
	if s := ProblemScale(tp, nil); s != 1 {
		t.Fatalf("degenerate scale = %v, want 1", s)
	}
}

// TestMinMaxScaleInvariance solves proportionally-scaled versions of the
// same Abilene problem across five orders of magnitude: θ* must be
// identical (it is dimensionless) and the flows must scale linearly.
func TestMinMaxScaleInvariance(t *testing.T) {
	solve := func(scale float64) *MinMaxResult {
		tp := topo.Abilene(10*scale, 0)
		demands := []topo.Demand{
			{Ingress: tp.MustNode("Seattle"), PrefixName: "cdn-east", Volume: 9 * scale},
			{Ingress: tp.MustNode("LosAngeles"), PrefixName: "cdn-east", Volume: 6 * scale},
			{Ingress: tp.MustNode("Chicago"), PrefixName: "cdn-west", Volume: 7 * scale},
		}
		res, err := SolveMinMax(tp, demands)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		return res
	}
	ref := solve(1e6)
	for _, scale := range []float64{1e7, 1e8, 1e9, 1e10, 1e11} {
		res := solve(scale)
		if d := math.Abs(res.MaxUtilisation - ref.MaxUtilisation); d > 1e-6 {
			t.Errorf("scale %g: θ* = %v, want %v (Δ %g)", scale, res.MaxUtilisation, ref.MaxUtilisation, d)
		}
		// Total flow per commodity must scale linearly with the volumes.
		for name, flow := range res.Flow {
			sum := 0.0
			for _, v := range flow {
				sum += v
			}
			refSum := 0.0
			for _, v := range ref.Flow[name] {
				refSum += v
			}
			want := refSum * scale / 1e6
			if want > 0 && math.Abs(sum-want)/want > 1e-6 {
				t.Errorf("scale %g: commodity %s total flow %g, want %g", scale, name, sum, want)
			}
		}
		// No spurious splits: every split fraction must be realisable.
		for name, routers := range res.Splits {
			for u, nh := range routers {
				for v, f := range nh {
					if f < 1e-6 {
						t.Errorf("scale %g: %s router %d -> %d: noise split %g survived", scale, name, u, v, f)
					}
				}
			}
		}
	}
}

// TestSimplexMixedMagnitudes exercises SolveLP on tableaus whose
// coefficients span 1e-3..1e11 — the conditioning regime where absolute
// tolerances silently corrupt the basis.
func TestSimplexMixedMagnitudes(t *testing.T) {
	t.Run("mixed-rows", func(t *testing.T) {
		// minimise -x s.t. 1e11 x + s1 = 1e11, 1e-3 x + s2 = 2e-3:
		// x <= 1 binds, optimum x = 1.
		c := []float64{-1, 0, 0}
		a := [][]float64{
			{1e11, 1, 0},
			{1e-3, 0, 1},
		}
		b := []float64{1e11, 2e-3}
		x, obj, status := SolveLP(c, a, b)
		if status != Optimal {
			t.Fatalf("status %v", status)
		}
		if math.Abs(x[0]-1) > 1e-6 || math.Abs(obj-(-1)) > 1e-6 {
			t.Fatalf("x = %v obj = %v, want x[0]=1 obj=-1", x, obj)
		}
	})
	t.Run("mixed-columns", func(t *testing.T) {
		// minimise -x - y s.t. 1e-3 x + 1e11 y + s = 1e11, x + s2 = 5:
		// x = 5, y = (1e11 - 5e-3)/1e11 ≈ 1.
		c := []float64{-1, -1, 0, 0}
		a := [][]float64{
			{1e-3, 1e11, 1, 0},
			{1, 0, 0, 1},
		}
		b := []float64{1e11, 5}
		x, _, status := SolveLP(c, a, b)
		if status != Optimal {
			t.Fatalf("status %v", status)
		}
		if math.Abs(x[0]-5) > 1e-6 || math.Abs(x[1]-1) > 1e-6 {
			t.Fatalf("x = %v, want [5, ~1]", x)
		}
	})
	t.Run("uniformly-scaled", func(t *testing.T) {
		// The same LP at 1x and 1e9x row scaling must agree: minimise
		// -x-2y s.t. x+y <= 4, y <= 3 -> x=1, y=3, obj=-7.
		for _, rowScale := range []float64{1, 1e9} {
			c := []float64{-1, -2, 0, 0}
			a := [][]float64{
				{rowScale, rowScale, rowScale, 0},
				{0, rowScale, 0, rowScale},
			}
			b := []float64{4 * rowScale, 3 * rowScale}
			x, obj, status := SolveLP(c, a, b)
			if status != Optimal {
				t.Fatalf("rowScale %g: status %v", rowScale, status)
			}
			if math.Abs(x[0]-1) > 1e-6 || math.Abs(x[1]-3) > 1e-6 || math.Abs(obj-(-7)) > 1e-6 {
				t.Fatalf("rowScale %g: x = %v obj = %v, want [1 3] -7", rowScale, x, obj)
			}
		}
	})
	// The two below are held to the reference bit for bit, basis included:
	// each turns on one tolerance of the ratio test, and an absolute
	// tolerance takes a different pivot there.
	sameAsReference := func(t *testing.T, c []float64, a [][]float64, b []float64) {
		var got, want lpRun
		got.x, got.obj, got.status, got.basis = solveLP(c, a, b)
		want.x, want.obj, want.status, want.basis = refSolveLP(c, a, b)
		sameRun(t, "SolveLP", got, want)
	}
	t.Run("pivot-noise-at-column-scale", func(t *testing.T) {
		// minimise -x s.t. 1e6 x + s1 = 1e6, 1e-7 x + s2 = 0: the 1e-7 is
		// noise next to the column's 1e6 and must not be pivoted on, though
		// its ratio 0 is the smaller.
		sameAsReference(t, []float64{-1, 0, 0},
			[][]float64{{1e6, 1, 0}, {1e-7, 0, 1}},
			[]float64{1e6, 0})
	})
	t.Run("ratio-tie-at-scale", func(t *testing.T) {
		// minimise -x s.t. x + s1 = 1e9 + 0.5, x + s2 = 1e9: the ratios
		// differ by 0.5 in 1e9, a tie at their scale, so Bland's rule
		// picks the leaving row by its basic column.
		sameAsReference(t, []float64{-1, 0, 0},
			[][]float64{{1, 1, 0}, {1, 0, 1}},
			[]float64{1e9 + 0.5, 1e9})
	})
	t.Run("feasibility-at-scale", func(t *testing.T) {
		// x + y = 1e9 with x, y >= 0 is feasible; the phase-1 residual
		// at this magnitude is roundoff and must not read as Infeasible.
		c := []float64{1, 1}
		a := [][]float64{{1, 1}}
		b := []float64{1e9}
		_, obj, status := SolveLP(c, a, b)
		if status != Optimal {
			t.Fatalf("status %v, want optimal", status)
		}
		if math.Abs(obj-1e9)/1e9 > 1e-6 {
			t.Fatalf("obj = %v, want 1e9", obj)
		}
	})
}

// TestMinMaxGbitAbilene is the direct regression for the old ROADMAP
// ceiling: on Abilene with 10 Gbit/s links and Gbit-scale demands the LP
// used to terminate at a wrong vertex (θ* = 1.5 instead of 0.75).
func TestMinMaxGbitAbilene(t *testing.T) {
	for _, capacity := range []float64{1e9, 10e9} {
		tp := topo.Abilene(capacity, time.Millisecond)
		demands := []topo.Demand{
			{Ingress: tp.MustNode("Seattle"), PrefixName: "cdn-east", Volume: 0.9 * capacity},
			{Ingress: tp.MustNode("LosAngeles"), PrefixName: "cdn-east", Volume: 0.6 * capacity},
			{Ingress: tp.MustNode("Chicago"), PrefixName: "cdn-west", Volume: 0.7 * capacity},
		}
		res, err := SolveMinMax(tp, demands)
		if err != nil {
			t.Fatalf("capacity %s: %v", topo.FormatBits(capacity), err)
		}
		if math.Abs(res.MaxUtilisation-0.75) > 1e-6 {
			t.Fatalf("capacity %s: θ* = %v, want 0.75", topo.FormatBits(capacity), res.MaxUtilisation)
		}
	}
}
