package te

// Numerical conditioning for the TE solvers.
//
// Demand volumes and link capacities arrive in bit/s, so a production
// scenario hands the LP coefficients of magnitude 1e9-1e11 while the
// simplex manipulates pivot elements of magnitude 1. Absolute tolerances
// (is this reduced cost zero? is this pivot element usable?) that are
// calibrated for O(1) problems silently misjudge such tableaus: pivots on
// noise-sized elements corrupt the basis and the solver terminates at a
// wrong "optimum". The cure is scale invariance, applied twice over:
//
//   - SolveMinMax divides every capacity and demand volume by
//     ProblemScale before building the LP, so the solver always sees an
//     O(1) problem regardless of absolute traffic magnitudes, and
//     multiplies the flows back afterwards. The scale factor is a power
//     of two, so the round trip is exact in binary floating point.
//   - The simplex itself measures the magnitudes it is handed (objective,
//     right-hand side, pivot columns) and applies its tolerances
//     relative to them, so even directly-built ill-conditioned problems
//     (the two-phase SolveLP the tests keep) solve correctly.
//
// The knobs below are the package's tolerance family. They are consts,
// not variables: every solver result in tests and production is meant to
// be reproducible from source.

import (
	"math"

	"fibbing.net/fibbing/internal/topo"
)

// SolverRelTol is the base relative tolerance of the LP machinery: a
// quantity is treated as zero when it is below SolverRelTol times the
// magnitude of the values it is compared against. It is also the
// relative cutoff under which SolveMinMax discards per-link flow as
// solver noise (relative to the commodity's total volume).
const SolverRelTol = 1e-9

// ProblemScale returns the normalisation factor SolveMinMax divides
// capacities and demand volumes by before building the LP: the largest
// power of two not exceeding the problem's dominant magnitude (the
// maximum over finite link capacities and demand volumes). A power of
// two makes the divide-then-multiply round trip exact — mantissas are
// untouched, only exponents shift. Degenerate inputs (no capacitated
// links, no positive demand) scale by 1.
func ProblemScale(t *topo.Topology, demands []topo.Demand) float64 {
	max := 0.0
	for _, l := range t.Links() {
		if l.Capacity > max && !math.IsInf(l.Capacity, 1) {
			max = l.Capacity
		}
	}
	for _, d := range demands {
		if d.Volume > max && !math.IsInf(d.Volume, 1) {
			max = d.Volume
		}
	}
	return powerOfTwoScale(max)
}

// powerOfTwoScale returns the largest power of two <= v, or 1 when v is
// not a positive finite number.
func powerOfTwoScale(v float64) float64 {
	if v <= 0 || math.IsInf(v, 1) || math.IsNaN(v) {
		return 1
	}
	// Frexp: v = frac * 2^exp with frac in [0.5, 1), so 2^(exp-1) <= v.
	_, exp := math.Frexp(v)
	return math.Ldexp(1, exp-1)
}
