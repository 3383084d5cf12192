// The primal simplex underneath SolveMinMax: Bland's rule on one flat
// tableau, each step costing what the tableau's non-zeros cost.
// SolveMinMax's column-generation master (colgen.go) starts from a
// feasible basis and grows the tableau between phase-2 runs; it is the
// kernel's only program caller, and TestKernelMatchesReferenceOnMasters
// holds its runs over the test topology zoo to the dense reference
// solver. The
// two-phase cold start (SolveLP, LPBuilder) has no program caller; it
// lives in twophase_test.go beside the node-link oracle that solves with
// it. All tolerances are relative to
// the magnitudes of the tableau entries they judge (see scale.go), so the
// solver keeps working on ill-conditioned inputs — coefficients spanning
// 1e-3..1e11 — instead of pivoting on noise and terminating at a wrong
// vertex.

package te

import (
	"fmt"
	"math"
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

// tableau is the working state of one solve, and the only copy of the
// constraint matrix a solve makes: m rows in one flat backing array. A row
// holds the n structural columns (declared variables, then slacks), the
// spare columns — a cold start's artificials, or the room the
// column-generation master appends columns into — and the right-hand side
// in its last slot.
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
	// first is the first column entering prices. The columns before it
	// are the master's demand-row identity columns: every pivot updates
	// them, so they hold B⁻¹, but they never enter.
	first int

	// Scratch reused across iterations: the rows whose basic variable has a
	// non-zero cost, and the pivot row's non-zero entries.
	costRows []costRow
	nz       []entry

	// onChange, when set, runs after every pivot and every appended row or
	// column with the live column count; the solver's tests use it to check
	// invariants mid-solve.
	onChange func(live int)
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

// addColumn appends a column and returns its index; col holds one entry
// per row. When the spare columns run out, the rows are re-laid out with
// twice the room.
func (t *tableau) addColumn(col []float64) int {
	if t.n == t.stride-1 {
		stride := 2*t.stride + 1
		a := make([]float64, t.m*stride, cap(t.a)/t.stride*stride)
		for i := 0; i < t.m; i++ {
			row := t.row(i)
			copy(a[i*stride:], row[:t.n])
			a[i*stride+stride-1] = row[t.rhs()]
		}
		t.a, t.stride = a, stride
		t.basic = append(t.basic, make([]bool, stride-1-len(t.basic))...)
	}
	j := t.n
	for i, v := range col {
		t.a[i*t.stride+j] = v
	}
	t.n++
	if t.onChange != nil {
		t.onChange(t.n)
	}
	return j
}

// addRow appends a zero row and returns it for the caller to fill; the
// caller also names its basic column with setBasic.
func (t *tableau) addRow() []float64 {
	n := len(t.a)
	t.a = append(t.a, make([]float64, t.stride)...)
	t.m++
	t.basis = append(t.basis, -1)
	return t.a[n:]
}

// setBasic makes col, an exact unit vector with its 1 in row, basic there
// without a pivot.
func (t *tableau) setBasic(row, col int) {
	t.basis[row] = col
	t.basic[col] = true
	if t.onChange != nil {
		t.onChange(t.n)
	}
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
// textbook dense iteration (reference_test.go keeps one), so a run returns
// the same outcome, basis and right-hand-side bits.
// TestKernelMatchesReferenceOnMasters checks that on the column-generation
// masters SolveMinMax solves. What is skipped is only arithmetic whose
// result is an exact zero.
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
	for j := t.first; j < len(c); {
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
	if t.onChange != nil {
		t.onChange(live)
	}
}
