package te

// The two-phase cold start of the primal simplex (simplex.go): SolveLP
// and LPBuilder over an arbitrary tableau, artificials and all. No
// program code solves a general LP — SolveMinMax's column-generation
// master starts from a feasible crash basis — so this lives with its
// users: the node-link oracle in reference_test.go, the dense reference
// solver it is held to bit for bit (simplex_equiv_test.go, FuzzSolveLP)
// and the conditioning tests. It runs the same simplex, entering and
// pivot as the master.

import (
	"fmt"
	"math"
)

// FeasibilityRelTol is the phase-1 feasibility slack of the simplex,
// relative to the largest right-hand-side magnitude: an LP whose
// artificial variables cannot be driven below this fraction of the
// problem scale is reported Infeasible.
const FeasibilityRelTol = 1e-6

// SolveLP minimises c·x subject to A·x = b, x >= 0, using the two-phase
// primal simplex method with Bland's anti-cycling rule. A is dense with
// one row per equality constraint; it is copied once, into the solve's
// tableau. Inequalities must be converted by the caller by adding slack
// variables (see LPBuilder). All inputs must be finite.
//
// Tolerances are relative: feasibility is judged against the largest
// right-hand-side magnitude (FeasibilityRelTol) and pivot decisions
// against the magnitudes of the entries involved (SolverRelTol), so the
// solve is invariant under uniform rescaling of the problem.
func SolveLP(c []float64, a [][]float64, b []float64) ([]float64, float64, SimplexStatus) {
	x, obj, status, _ := solveLP(c, a, b)
	return x, obj, status
}

// solveLP is SolveLP plus the final basis, the counterpart of refSolveLP.
func solveLP(c []float64, a [][]float64, b []float64) ([]float64, float64, SimplexStatus, []int) {
	m, n := len(a), len(c)
	if m > 0 && len(b) != m {
		panic("te: len(b) != rows")
	}
	t := newTableau(m, n, m)
	for i := range a {
		if len(a[i]) != n {
			panic(fmt.Sprintf("te: row %d has %d cols, want %d", i, len(a[i]), n))
		}
		row := t.row(i)
		copy(row, a[i])
		row[t.rhs()] = b[i]
	}
	return t.solveCold(c)
}

// normalise flips, in place, every row with a negative right-hand side so
// that b >= 0, and returns the largest right-hand-side magnitude (at least
// 1): the scale feasibility is judged against.
func (t *tableau) normalise() float64 {
	bScale := 1.0
	for i := 0; i < t.m; i++ {
		row := t.row(i)
		if row[t.rhs()] < 0 {
			for j := 0; j < t.n; j++ {
				row[j] = -row[j]
			}
			row[t.rhs()] = -row[t.rhs()]
		}
		if row[t.rhs()] > bScale {
			bScale = row[t.rhs()]
		}
	}
	return bScale
}

// solution reads the basic solution off the tableau.
func (t *tableau) solution(c []float64) ([]float64, float64) {
	x := make([]float64, t.n)
	for i, bi := range t.basis {
		if bi < t.n {
			x[bi] = t.row(i)[t.rhs()]
		}
	}
	obj := 0.0
	for j := 0; j < t.n; j++ {
		obj += c[j] * x[j]
	}
	return x, obj
}

// solveCold runs the two-phase method on a filled tableau whose spare
// columns (one per row) become the artificial variables n..n+m-1. It
// returns the solution over the structural columns and the final basis
// (one column index per row; artificial columns appear as indices >= n on
// redundant rows).
func (t *tableau) solveCold(c []float64) ([]float64, float64, SimplexStatus, []int) {
	m, n := t.m, t.n
	if m == 0 {
		return make([]float64, n), 0, Optimal, []int{}
	}
	bScale := t.normalise()

	// Phase 1: minimise the sum of the artificial variables.
	total := n + m
	for i := 0; i < m; i++ {
		t.row(i)[n+i] = 1
		t.basis[i] = n + i
		t.basic[n+i] = true
	}
	phase1 := make([]float64, total)
	for j := n; j < total; j++ {
		phase1[j] = 1
	}
	switch t.simplex(phase1) {
	case simplexStalled:
		return nil, 0, Stalled, nil
	case simplexUnbounded:
		return nil, 0, Unbounded, nil // cannot happen in phase 1, defensive
	}
	// Check feasibility, relative to the problem's right-hand-side
	// magnitude: residual artificial mass that is pure roundoff at scale
	// 1e9 must not read as infeasibility (and would, against an absolute
	// cutoff).
	sum := 0.0
	for i, bi := range t.basis {
		if bi >= n {
			sum += t.row(i)[t.rhs()]
		}
	}
	if sum > FeasibilityRelTol*bScale {
		return nil, 0, Infeasible, nil
	}
	// Drive remaining artificial variables out of the basis. The pivot
	// element must be significant relative to its row, not in absolute
	// terms: a 1e-9 entry in a row of 1e9-sized coefficients is noise,
	// and pivoting on it would blow the tableau up. A row with no such
	// element is redundant and keeps its artificial, basic at 0. From here
	// on the artificial columns are frozen — never priced, never read — so
	// no pivot updates them any more.
	for i, bi := range t.basis {
		if bi < n {
			continue
		}
		row := t.row(i)[:n]
		rowScale := 1.0
		for _, v := range row {
			if v := math.Abs(v); v > rowScale {
				rowScale = v
			}
		}
		for j, v := range row {
			if math.Abs(v) > simplexEps*rowScale {
				t.pivot(i, j, n)
				break
			}
		}
	}

	// Phase 2: the original objective over the structural columns.
	switch t.simplex(c) {
	case simplexStalled:
		return nil, 0, Stalled, nil
	case simplexUnbounded:
		return nil, 0, Unbounded, nil
	}
	x, obj := t.solution(c)
	return x, obj, Optimal, t.basis
}

// LPBuilder assembles an LP incrementally: named variables, equality and
// <= constraints (slacks added automatically), and a linear objective.
type LPBuilder struct {
	nvars int
	obj   []float64
	types []byte // 'e' or 'l'
	rhs   []float64
	terms [][]lpTerm // per row, its non-zero coefficients
}

type lpTerm struct {
	idx  int
	coef float64
}

// NewLPBuilder returns an empty builder.
func NewLPBuilder() *LPBuilder { return &LPBuilder{} }

// AddVar adds a variable with the given objective coefficient and returns
// its index.
func (bld *LPBuilder) AddVar(objCoef float64) int {
	bld.nvars++
	bld.obj = append(bld.obj, objCoef)
	return bld.nvars - 1
}

// NumVars returns the number of variables added so far.
func (bld *LPBuilder) NumVars() int { return bld.nvars }

// AddEq adds Σ coef_i x_i = rhs.
func (bld *LPBuilder) AddEq(terms map[int]float64, rhs float64) {
	bld.addRow('e', terms, rhs)
}

// AddLe adds Σ coef_i x_i <= rhs.
func (bld *LPBuilder) AddLe(terms map[int]float64, rhs float64) {
	bld.addRow('l', terms, rhs)
}

func (bld *LPBuilder) addRow(kind byte, terms map[int]float64, rhs float64) {
	row := make([]lpTerm, 0, len(terms))
	for idx, coef := range terms {
		if idx < 0 || idx >= bld.nvars {
			panic("te: constraint references unknown variable")
		}
		if coef != 0 {
			row = append(row, lpTerm{idx, coef})
		}
	}
	bld.terms = append(bld.terms, row)
	bld.types = append(bld.types, kind)
	bld.rhs = append(bld.rhs, rhs)
}

// tableau writes the problem in standard form — the declared variables,
// then one slack per <= row — straight into a fresh tableau with the given
// number of spare columns, and returns it with the objective over the
// structural columns.
func (bld *LPBuilder) tableau(spare int) ([]float64, *tableau) {
	slacks := 0
	for _, t := range bld.types {
		if t == 'l' {
			slacks++
		}
	}
	c := make([]float64, bld.nvars+slacks)
	copy(c, bld.obj)
	t := newTableau(len(bld.terms), len(c), spare)
	si := bld.nvars
	for i, terms := range bld.terms {
		row := t.row(i)
		for _, term := range terms {
			row[term.idx] += term.coef
		}
		if bld.types[i] == 'l' {
			row[si] = 1
			si++
		}
		row[t.rhs()] = bld.rhs[i]
	}
	return c, t
}

// Solve runs the cold two-phase solve (adding slacks for <= rows). The
// returned vector contains only the original variables.
func (bld *LPBuilder) Solve() ([]float64, float64, SimplexStatus) {
	c, t := bld.tableau(len(bld.terms))
	x, obj, status, _ := t.solveCold(c)
	if status != Optimal {
		return nil, 0, status
	}
	return x[:bld.nvars], obj, status
}
