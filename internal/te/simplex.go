// The two-phase primal simplex underneath SolveMinMax and the LPBuilder:
// Bland's rule on one flat tableau, each step costing what the tableau's
// non-zeros cost. All tolerances are relative to the magnitudes of the
// tableau entries they judge (see scale.go), so the solver keeps working on
// ill-conditioned inputs — coefficients spanning 1e-3..1e11 — instead of
// pivoting on noise and terminating at a wrong vertex.

package te

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// SimplexStatus reports the outcome of an LP solve.
type SimplexStatus int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal SimplexStatus = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// Stalled means the solver hit its iteration bound without
	// converging (numerical cycling on a degenerate basis). Callers
	// treat it like any other failed solve and fall back.
	Stalled
)

func (s SimplexStatus) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Stalled:
		return "stalled"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

const simplexEps = SolverRelTol

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
	x, obj, status, _ := t.solveCold(c)
	return x, obj, status
}

// tableau is the working state of one solve, and the only copy of the
// constraint matrix a solve makes: m rows in one flat backing array. A row
// holds the n structural columns (declared variables, then slacks), the
// spare columns a cold start needs for its artificials (none on a warm
// start), and the right-hand side in its last slot.
type tableau struct {
	a      []float64
	m, n   int
	stride int   // row length: n + spare + 1
	basis  []int // basic column of each row, -1 before one is chosen
	// basic marks, by column, the columns in basis. pivot turns the
	// entering column into an exact unit vector, and no later pivot
	// touches it while it stays basic, so its reduced cost is an exact
	// zero and entering need not price it.
	basic []bool

	// Scratch reused across iterations: the rows whose basic variable has a
	// non-zero cost, and the pivot row's non-zero entries.
	costRows []costRow
	nz       []entry

	// onPivot, when set, runs after every pivot with its live column
	// count; the solver's tests use it to check invariants mid-solve.
	onPivot func(live int)
}

// entry is one non-zero of a tableau row.
type entry struct {
	col int
	val float64
}

// newTableau returns a zeroed tableau; the caller fills every row's
// structural columns and right-hand side before solving.
func newTableau(m, n, spare int) *tableau {
	stride := n + spare + 1
	t := &tableau{
		a:        make([]float64, m*stride),
		m:        m,
		n:        n,
		stride:   stride,
		basis:    make([]int, m),
		basic:    make([]bool, stride-1),
		costRows: make([]costRow, 0, m),
		nz:       make([]entry, 0, stride),
	}
	for i := range t.basis {
		t.basis[i] = -1
	}
	return t
}

func (t *tableau) row(i int) []float64 { return t.a[i*t.stride : (i+1)*t.stride] }

// rhs is the index of the right-hand side within a row.
func (t *tableau) rhs() int { return t.stride - 1 }

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

// solveWarm re-solves from a prior optimal basis instead of a two-phase
// cold start, on a filled tableau without spare columns. start is the
// column set from a previous solveCold of a structurally identical problem
// (same variable/constraint layout — see LPBuilder.StructureKey);
// coefficient and right-hand-side values are free to differ, because the
// tableau is refactorised onto the stored columns by Gauss-Jordan
// elimination before phase-2 simplex resumes. ok = false means the basis
// could not be reused — singular on the new coefficients, basic solution
// infeasible, or the re-solve failed — and the caller must fall back to a
// cold solve.
func (t *tableau) solveWarm(c []float64, start []int) ([]float64, float64, SimplexStatus, []int, bool) {
	m, n := t.m, t.n
	if len(start) != m {
		return nil, 0, Infeasible, nil, false
	}
	for _, j := range start {
		if j < 0 || j >= n {
			return nil, 0, Infeasible, nil, false
		}
	}
	if m == 0 {
		return make([]float64, n), 0, Optimal, []int{}, true
	}
	bScale := t.normalise()
	// Refactorise: drive every stored basis column to a unit column,
	// choosing the largest remaining pivot per column. Pivot significance
	// is judged relative to the chosen row's magnitude, like the
	// artificial drive-out in solveCold: a noise-sized pivot would blow the
	// tableau up rather than reproduce the old basis.
	used := make([]bool, m)
	for _, col := range start {
		best, bestV := -1, 0.0
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			if v := math.Abs(t.a[i*t.stride+col]); v > bestV {
				best, bestV = i, v
			}
		}
		if best == -1 {
			return nil, 0, Infeasible, nil, false // duplicate or vanished column
		}
		rowScale := 1.0
		for _, v := range t.row(best)[:n] {
			if v := math.Abs(v); v > rowScale {
				rowScale = v
			}
		}
		if bestV <= simplexEps*rowScale {
			return nil, 0, Infeasible, nil, false // singular on the new coefficients
		}
		t.pivot(best, col, n)
		used[best] = true
	}
	// The refactorised basic solution must be (near-)feasible; clamp pure
	// roundoff negatives, bail on real ones.
	for i := 0; i < m; i++ {
		row := t.row(i)
		if row[t.rhs()] < 0 {
			if row[t.rhs()] < -FeasibilityRelTol*bScale {
				return nil, 0, Infeasible, nil, false
			}
			row[t.rhs()] = 0
		}
	}
	// Phase 2 directly: no artificials exist.
	switch t.simplex(c) {
	case simplexStalled:
		return nil, 0, Stalled, nil, false
	case simplexUnbounded:
		return nil, 0, Unbounded, nil, false
	}
	x, obj := t.solution(c)
	return x, obj, Optimal, t.basis, true
}

// simplexOutcome is simplex's termination reason.
type simplexOutcome int

const (
	simplexOptimal simplexOutcome = iota
	simplexUnbounded
	simplexStalled
)

// simplex performs primal simplex iterations on the tableau in place,
// minimising c over the first len(c) columns. Columns beyond len(c) are
// frozen: they are never priced and no pivot updates them, and a frozen
// variable left basic (an artificial on a redundant row) costs nothing.
//
// The pivot sequence is pinned: Bland's rule, every tolerance and every
// floating-point operation on a non-zero tableau entry are those of the
// textbook dense iteration (reference_test.go keeps one), so a solve
// returns the same status, basis and float bits. What is skipped is only
// arithmetic whose result is an exact zero.
func (t *tableau) simplex(c []float64) simplexOutcome {
	m, stride, rhs := t.m, t.stride, t.rhs()
	// Generous bound on pivots: Bland's rule terminates in exact
	// arithmetic, but floating-point ties can stall large degenerate
	// problems; those report Stalled rather than spinning forever.
	limit := 200 * (m + stride - 1)
	if limit < 200000 {
		limit = 200000
	}
	// Every "is this zero?" decision below is made relative to the
	// magnitude of the terms that produced the value — an absolute
	// epsilon misreads cancellation noise as signal once coefficients
	// leave O(1).
	for iter := 0; ; iter++ {
		if iter > limit {
			return simplexStalled
		}
		enter := t.entering(c)
		if enter == -1 {
			return simplexOptimal
		}
		// Leaving row (Bland: min ratio, ties by smallest basis index).
		// Pivot eligibility is relative to the column's largest entry:
		// pivoting on an element that is noise at the column's scale
		// corrupts the basis.
		colScale := 1.0
		for i := 0; i < m; i++ {
			if v := math.Abs(t.a[i*stride+enter]); v > colScale {
				colScale = v
			}
		}
		pivotEps := simplexEps * colScale
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if v := t.a[i*stride+enter]; v > pivotEps {
				ratio := t.a[i*stride+rhs] / v
				if leave == -1 {
					best, leave = ratio, i
					continue
				}
				ratioEps := simplexEps * math.Max(1, math.Max(math.Abs(best), math.Abs(ratio)))
				if ratio < best-ratioEps ||
					(math.Abs(ratio-best) <= ratioEps && t.basis[i] < t.basis[leave]) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return simplexUnbounded
		}
		t.pivot(leave, enter, len(c))
	}
}

// entering returns Bland's entering column — the smallest index whose
// reduced cost c_j - Σ_i c_B(i)·a_ij is negative relative to the largest
// term that produced it — or -1 at optimality. The sum runs, in row order,
// over the rows whose basic variable has a non-zero cost only: the min-max
// objective is the single variable θ, so in phase 2 that is one row. The
// terms skipped are exact zeros, so each reduced cost is the all-rows sum
// bit for bit.
//
// Basic columns are not priced. A basic column is an exact unit vector
// (see pivot), so its reduced cost is c_j - c_j·1 = 0 exactly and it can
// never enter; Bland's rule makes the low columns basic first, so on the
// min-max problems most of the columns before the entering one are basic.
// The others are priced four at a time in column order, each group's sums
// held in registers across the cost rows, so the walk prices at most
// three non-basic columns past the entering one.
func (t *tableau) entering(c []float64) int {
	t.costRows = t.costRows[:0]
	for i, b := range t.basis {
		if b < len(c) && c[b] != 0 {
			t.costRows = append(t.costRows, costRow{off: i * t.stride, cb: c[b]})
		}
	}
	for j := 0; j < len(c); {
		// The next four non-basic columns; a short last group repeats its
		// last column.
		var cols [4]int
		k := 0
		for ; j < len(c) && k < len(cols); j++ {
			if !t.basic[j] {
				cols[k] = j
				k++
			}
		}
		if k == 0 {
			break
		}
		for g := k; g < len(cols); g++ {
			cols[g] = cols[k-1]
		}
		j0, j1, j2, j3 := cols[0], cols[1], cols[2], cols[3]
		rc0, rc1, rc2, rc3 := c[j0], c[j1], c[j2], c[j3]
		s0, s1, s2, s3 := math.Abs(rc0), math.Abs(rc1), math.Abs(rc2), math.Abs(rc3)
		for _, cr := range t.costRows {
			row := t.a[cr.off : cr.off+t.stride]
			t0, t1, t2, t3 := cr.cb*row[j0], cr.cb*row[j1], cr.cb*row[j2], cr.cb*row[j3]
			rc0 -= t0
			rc1 -= t1
			rc2 -= t2
			rc3 -= t3
			if v := math.Abs(t0); v > s0 {
				s0 = v
			}
			if v := math.Abs(t1); v > s1 {
				s1 = v
			}
			if v := math.Abs(t2); v > s2 {
				s2 = v
			}
			if v := math.Abs(t3); v > s3 {
				s3 = v
			}
		}
		rcs, scales := [4]float64{rc0, rc1, rc2, rc3}, [4]float64{s0, s1, s2, s3}
		for g := 0; g < k; g++ {
			if rcs[g] < -simplexEps*max(scales[g], 1) {
				return cols[g]
			}
		}
	}
	return -1
}

// costRow is one row entering sums over: its offset in the tableau and
// the cost of its basic variable.
type costRow struct {
	off int
	cb  float64
}

// pivot makes col basic in row. Only the pivot row's non-zero entries
// among the first live columns — and the right-hand side, always — are
// divided and eliminated: where the pivot row holds a zero the all-columns
// update subtracts f·0 and changes nothing, so every non-zero of the
// tableau, and the whole right-hand side, comes out the same.
//
// The entering column comes out an exact unit vector: p/p is 1 and
// f − f·1 is 0 in IEEE arithmetic. While it stays basic every later pivot
// row holds a zero in it, so no pivot touches it again.
func (t *tableau) pivot(row, col, live int) {
	pr := t.row(row)
	p := pr[col]
	nz := t.nz[:0]
	for j, v := range pr[:live] {
		if v != 0 {
			v /= p
			pr[j] = v
			nz = append(nz, entry{j, v})
		}
	}
	pr[t.rhs()] /= p
	nz = append(nz, entry{t.rhs(), pr[t.rhs()]})
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ri := t.row(i)
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, e := range nz {
			ri[e.col] -= f * e.val
		}
	}
	if old := t.basis[row]; old >= 0 {
		t.basic[old] = false
	}
	t.basis[row] = col
	t.basic[col] = true
	t.nz = nz
	if t.onPivot != nil {
		t.onPivot(live)
	}
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
	x, obj, status, _ := bld.SolveBasis()
	return x, obj, status
}

// SolveBasis is Solve plus the final simplex basis, for warm-starting a
// later solve of a structurally identical problem via SolveFromBasis. The
// basis is nil when it cannot seed a warm start — the solve failed, or an
// artificial variable stayed basic on a redundant row (the warm tableau
// has no artificial columns to refactorise onto).
func (bld *LPBuilder) SolveBasis() ([]float64, float64, SimplexStatus, []int) {
	c, t := bld.tableau(len(bld.terms))
	x, obj, status, basis := t.solveCold(c)
	if status != Optimal {
		return nil, 0, status, nil
	}
	for _, bi := range basis {
		if bi >= len(c) {
			basis = nil
			break
		}
	}
	return x[:bld.nvars], obj, status, basis
}

// SolveFromBasis solves the problem warm, re-entering phase-2 simplex
// from a basis returned by a previous SolveBasis of a problem with the
// same StructureKey. Coefficient and right-hand-side values may differ.
// ok = false means the basis was unusable (structure drifted, singular
// refactorisation, infeasible basic point, or a failed re-solve); the
// caller should fall back to SolveBasis.
func (bld *LPBuilder) SolveFromBasis(start []int) ([]float64, float64, SimplexStatus, []int, bool) {
	c, t := bld.tableau(0)
	x, obj, status, basis, ok := t.solveWarm(c, start)
	if !ok || status != Optimal {
		return nil, 0, status, nil, false
	}
	return x[:bld.nvars], obj, status, basis, true
}

// StructureKey canonically encodes the problem's shape — the variable
// count and, per row, its type and sorted variable indices — ignoring
// coefficient and right-hand-side values. Two builds with equal keys have
// identical tableau layouts, so a simplex basis from one is meaningful in
// the other (values may differ; SolveFromBasis refactorises).
func (bld *LPBuilder) StructureKey() string {
	sb := make([]byte, 0, 16*len(bld.terms))
	sb = strconv.AppendInt(sb, int64(bld.nvars), 10)
	var idx []int
	for i, row := range bld.terms {
		sb = append(sb, '|', bld.types[i], ':')
		idx = idx[:0]
		for _, t := range row {
			idx = append(idx, t.idx)
		}
		// addRow fills rows from map iteration, so sort for a canonical
		// encoding.
		slices.Sort(idx)
		for _, v := range idx {
			sb = strconv.AppendInt(sb, int64(v), 10)
			sb = append(sb, ',')
		}
	}
	return string(sb)
}
