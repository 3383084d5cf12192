package te

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// lpRun is one raw solve: the solution over every structural column
// (slacks included), not just the declared variables.
type lpRun struct {
	x      []float64
	obj    float64
	status SimplexStatus
	basis  []int
}

// lpSolver is one side of the comparison: a cold and a warm entry point
// over the same built problem.
type lpSolver struct {
	cold func(bld *LPBuilder) lpRun
	warm func(bld *LPBuilder, start []int) (lpRun, bool)
}

var (
	coreSolver = lpSolver{
		cold: func(bld *LPBuilder) lpRun {
			c, t := bld.tableau(len(bld.terms))
			x, obj, status, basis := t.solveCold(c)
			return lpRun{x, obj, status, basis}
		},
		warm: func(bld *LPBuilder, start []int) (lpRun, bool) {
			c, t := bld.tableau(0)
			x, obj, status, basis, ok := t.solveWarm(c, start)
			return lpRun{x, obj, status, basis}, ok
		},
	}
	referenceSolver = lpSolver{
		cold: func(bld *LPBuilder) lpRun {
			c, a, b := refDense(bld)
			x, obj, status, basis := refSolveLP(c, a, b)
			return lpRun{x, obj, status, basis}
		},
		warm: func(bld *LPBuilder, start []int) (lpRun, bool) {
			c, a, b := refDense(bld)
			x, obj, status, basis, ok := refWarmSolveLP(c, a, b, start)
			return lpRun{x, obj, status, basis}, ok
		},
	}
)

// step is one MinMaxSolver.Solve in miniature: warm from *carry when there
// is one, cold on a miss or a failed warm attempt, counting each the way
// the solver does and leaving the next solve's start basis in *carry.
func (s lpSolver) step(bld *LPBuilder, carry *[]int, st *WarmLPStats) lpRun {
	if *carry != nil {
		if run, ok := s.warm(bld, slices.Clone(*carry)); ok && run.status == Optimal {
			st.Warm++
			*carry = run.basis
			return run
		}
		st.Fallback++
	}
	run := s.cold(bld)
	st.Cold++
	*carry = nil
	if run.status == Optimal && !slices.ContainsFunc(run.basis, func(j int) bool { return j >= len(run.x) }) {
		*carry = run.basis
	}
	return run
}

// sameRun fails unless both sides returned the same status, the same basis
// and the same bits in the objective and every x[j].
func sameRun(t *testing.T, what string, got, want lpRun) {
	t.Helper()
	if got.status != want.status {
		t.Fatalf("%s: status %v, reference %v", what, got.status, want.status)
	}
	if !slices.Equal(got.basis, want.basis) {
		t.Fatalf("%s: basis differs from the reference\n got %v\nwant %v", what, got.basis, want.basis)
	}
	if math.Float64bits(got.obj) != math.Float64bits(want.obj) {
		t.Fatalf("%s: objective %v (%#x), reference %v (%#x)", what,
			got.obj, math.Float64bits(got.obj), want.obj, math.Float64bits(want.obj))
	}
	if len(got.x) != len(want.x) {
		t.Fatalf("%s: %d columns, reference %d", what, len(got.x), len(want.x))
	}
	for j := range want.x {
		if math.Float64bits(got.x[j]) != math.Float64bits(want.x[j]) {
			t.Fatalf("%s: x[%d] = %v (%#x), reference %v (%#x)", what, j,
				got.x[j], math.Float64bits(got.x[j]), want.x[j], math.Float64bits(want.x[j]))
		}
	}
}

// oracleZoo is the scenario matrix's six topologies, built straight from
// the generators with the matrix's sizes and seeds (this package cannot
// import scenarios), then four larger ones on which the dense reference
// takes seconds.
var oracleZoo = []struct {
	name  string
	large bool
	build func(capacity float64) *topo.Topology
}{
	{"fig1", false, func(c float64) *topo.Topology { return topo.Fig1(topo.Fig1Opts{LinkCapacity: c}) }},
	{"abilene", false, func(c float64) *topo.Topology { return topo.Abilene(c, 0) }},
	{"fattree4", false, func(c float64) *topo.Topology {
		return topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: c, MaxWeight: 3, Seed: 2})
	}},
	{"ring9", false, func(c float64) *topo.Topology { return topo.Ring(topo.RingOpts{N: 9, Capacity: c}) }},
	{"waxman16", false, func(c float64) *topo.Topology {
		return topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: c, MaxWeight: 5, Seed: 13})
	}},
	{"random12", false, func(c float64) *topo.Topology {
		return topo.RandomConnected(topo.RandomOpts{Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: c, Seed: 3})
	}},
	{"fattree6", true, func(c float64) *topo.Topology {
		return topo.FatTree(topo.FatTreeOpts{K: 6, Capacity: c, MaxWeight: 3, Seed: 2})
	}},
	{"waxman30", true, func(c float64) *topo.Topology {
		return topo.Waxman(topo.WaxmanOpts{Nodes: 30, Capacity: c, MaxWeight: 5, Seed: 7})
	}},
	{"random20", true, func(c float64) *topo.Topology {
		return topo.RandomConnected(topo.RandomOpts{Nodes: 20, Degree: 3, MaxWeight: 5, Prefixes: 3, Capacity: c, Seed: 5})
	}},
	{"ring15", true, func(c float64) *topo.Topology { return topo.Ring(topo.RingOpts{N: 15, Capacity: c}) }},
}

// TestSimplexMatchesReference holds the sparse-stepped core to the parent's
// dense solver (reference_test.go) over the topology zoo × random demand
// sets (2, 5 and 12 demands, four seeds) × traffic scales 1e6..1e11: cold,
// and then through three warm re-solves at perturbed volumes, status,
// basis and every float bit must be equal — the same pivots were taken —
// and a real MinMaxSolver driven through the same train must count the
// same warm, cold and fallback solves and report the same θ*. The matrix
// topologies meet every demand set at every scale; on the large ones the
// twelve demand sets take the six scales in turn.
func TestSimplexMatchesReference(t *testing.T) {
	t.Parallel()
	scales := []float64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
	for _, z := range oracleZoo {
		if z.large && testing.Short() {
			continue // the dense reference needs seconds on these, minutes under -race
		}
		for si, scale := range scales {
			t.Run(fmt.Sprintf("%s/%g", z.name, scale), func(t *testing.T) {
				t.Parallel()
				capacity := 10 * scale
				tp := z.build(capacity)
				var warmSeen uint64
				problem := 0
				for _, nd := range []int{2, 5, 12} {
					for seed := int64(1); seed <= 4; seed++ {
						problem++
						if z.large && problem%len(scales) != si {
							continue
						}
						warmSeen += matchReference(t, tp, topo.RandomDemands(tp, nd, 0.1*capacity, 0.6*capacity, seed), seed)
					}
				}
				if warmSeen == 0 {
					t.Fatalf("no warm solve on %s: the warm path went uncompared", z.name)
				}
			})
		}
	}
}

// matchReference drives both solvers and a MinMaxSolver through one train
// on one demand set — a cold solve, a uniform ×1.7 that the old basis
// survives, then two rounds that move every volume on its own, often far
// enough that it does not — and returns how many of the solves were warm.
func matchReference(t *testing.T, tp *topo.Topology, base []topo.Demand, seed int64) uint64 {
	t.Helper()
	var gotCarry, wantCarry []int
	var gotStats, wantStats WarmLPStats
	solver := NewMinMaxSolver()
	for round, demands := range demandTrain(base, seed) {
		p, err := buildMinMax(tp, demands)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%d demands, seed %d, round %d", len(base), seed, round)
		want := referenceSolver.step(p.bld, &wantCarry, &wantStats)
		got := coreSolver.step(p.bld, &gotCarry, &gotStats)
		sameRun(t, what, got, want)
		if gotStats != wantStats {
			t.Fatalf("%s: solves %+v, reference %+v", what, gotStats, wantStats)
		}
		res, err := solver.Solve(tp, demands)
		if (err == nil) != (want.status == Optimal) {
			t.Fatalf("%s: MinMaxSolver err = %v, reference status %v", what, err, want.status)
		}
		if err == nil && math.Float64bits(res.MaxUtilisation) != math.Float64bits(want.obj) {
			t.Fatalf("%s: MinMaxSolver θ* = %v, reference %v", what, res.MaxUtilisation, want.obj)
		}
		if st := solver.Stats(); st != wantStats {
			t.Fatalf("%s: MinMaxSolver stats %+v, reference %+v", what, st, wantStats)
		}
	}
	return wantStats.Warm
}

// demandTrain is the train matchReference drives through one demand set:
// the set itself, a uniform ×1.7, then two rounds that move every volume
// on its own.
func demandTrain(base []topo.Demand, seed int64) [][]topo.Demand {
	rng := rand.New(rand.NewSource(seed))
	var train [][]topo.Demand
	for round, f := range []float64{1, 1.7, 0.3, 1} {
		demands := slices.Clone(base)
		for i := range demands {
			demands[i].Volume *= f
			if round > 1 {
				demands[i].Volume *= 0.5 + rng.Float64()
			}
		}
		train = append(train, demands)
	}
	return train
}

// TestBasicColumnsStayUnitVectors checks, after every pivot of the solves
// TestSimplexMatchesReference compares on the six matrix topologies — cold
// phase 1, the artificial drive-out, phase 2, and the warm refactorisation
// and re-solve — the invariant entering's pricing skip rests on: every
// basic column among the live ones is an exact unit vector, 1 in its own
// row and 0 in every other, and the basic marks name exactly the basis.
// Were a pivot to leave p·(1/p) in its own row, or a residue elsewhere, a
// basic column's reduced cost would no longer be an exact zero.
func TestBasicColumnsStayUnitVectors(t *testing.T) {
	t.Parallel()
	var what string
	pivots := 0
	check := func(tab *tableau) *tableau {
		tab.onPivot = func(live int) {
			pivots++
			marked := 0
			for _, b := range tab.basic {
				if b {
					marked++
				}
			}
			for i, col := range tab.basis {
				if col < 0 {
					continue // the warm refactorisation has not reached this row yet
				}
				if !tab.basic[col] {
					t.Fatalf("%s: basic column %d of row %d is not marked basic", what, col, i)
				}
				marked--
				if col >= live {
					continue // frozen: an artificial left basic on a redundant row
				}
				for r := 0; r < tab.m; r++ {
					want := 0.0
					if r == i {
						want = 1
					}
					if v := tab.a[r*tab.stride+col]; v != want {
						t.Fatalf("%s: basic column %d (row %d) holds %v in row %d, want %v", what, col, i, v, r, want)
					}
				}
			}
			if marked != 0 {
				t.Fatalf("%s: %d columns marked basic outside the basis", what, marked)
			}
		}
		return tab
	}
	checked := lpSolver{
		cold: func(bld *LPBuilder) lpRun {
			c, tab := bld.tableau(len(bld.terms))
			x, obj, status, basis := check(tab).solveCold(c)
			return lpRun{x, obj, status, basis}
		},
		warm: func(bld *LPBuilder, start []int) (lpRun, bool) {
			c, tab := bld.tableau(0)
			x, obj, status, basis, ok := check(tab).solveWarm(c, start)
			return lpRun{x, obj, status, basis}, ok
		},
	}
	scales := []float64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
	if testing.Short() {
		scales = []float64{1e6, 1e11} // seconds under -race otherwise
	}
	var stats WarmLPStats
	for _, z := range oracleZoo {
		if z.large {
			continue // the check is O(m²) a pivot; the matrix sizes suffice
		}
		for _, scale := range scales {
			capacity := 10 * scale
			tp := z.build(capacity)
			for _, nd := range []int{2, 5, 12} {
				for seed := int64(1); seed <= 4; seed++ {
					var carry []int
					for round, demands := range demandTrain(topo.RandomDemands(tp, nd, 0.1*capacity, 0.6*capacity, seed), seed) {
						p, err := buildMinMax(tp, demands)
						if err != nil {
							t.Fatal(err)
						}
						what = fmt.Sprintf("%s/%g %d demands, seed %d, round %d", z.name, scale, nd, seed, round)
						checked.step(p.bld, &carry, &stats)
					}
				}
			}
		}
	}
	if pivots < 10000 || stats.Warm == 0 || stats.Fallback == 0 {
		t.Fatalf("weak coverage: %d pivots checked over %+v solves", pivots, stats)
	}
}

// TestColdSolveAllocatesOneTableau pins the min-max path to one copy of
// the constraint matrix: the LP solve of a cold fat-tree k=4 SolveMinMax
// must allocate no more than 1.25 tableaus, so a reintroduced dense matrix
// or second tableau fails here rather than in a benchmark.
func TestColdSolveAllocatesOneTableau(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	p, err := buildMinMax(tp, topo.RandomDemands(tp, 12, 1e6, 6e6, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, tab := p.bld.tableau(len(p.bld.terms))
	m, n := tab.m, len(c)
	tableauBytes := 8 * m * (n + m + 1)

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, status := p.bld.Solve(); status != Optimal {
			t.Fatal(status)
		}
	}
	runtime.ReadMemStats(&after)
	perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
	if float64(perSolve) > 1.25*float64(tableauBytes) {
		t.Fatalf("a cold solve allocates %d bytes, over 1.25 × the %d-byte tableau (m=%d, n=%d): a second copy of the constraint matrix is back",
			perSolve, tableauBytes, m, n)
	}
}

// FuzzSolveLP feeds small dense LPs — negative right-hand sides, duplicated
// (redundant) and contradictory (infeasible) rows included — to SolveLP and
// to the reference solver: same status, same bits, no panic, no NaN.
func FuzzSolveLP(f *testing.F) {
	// rows, cols, then one byte per objective entry, matrix entry and rhs.
	f.Add([]byte{2, 4, 0x7f, 0x7e, 0x80, 0x80, 0x81, 0x81, 0x81, 0x80, 0x81, 0x83, 0x80, 0x81, 0x84, 0x86}) // TestSolveLPBasic
	f.Add([]byte{2, 1, 0x81, 0x81, 0x81, 0x81, 0x82})                                                       // x = 1 and x = 2: infeasible
	f.Add([]byte{1, 2, 0x7f, 0x80, 0x81, 0x7f, 0x80})                                                       // unbounded
	f.Add([]byte{1, 2, 0x81, 0x80, 0x7f, 0x81, 0x7e})                                                       // negative rhs
	f.Add([]byte{3, 2, 0x81, 0x81, 0x81, 0x81, 0x81, 0x81, 0x82, 0x82, 0x82, 0x82, 0x84})                   // redundant rows
	f.Add([]byte{3, 3, 0x70, 0x90, 0x85, 0x83, 0x7d, 0x80, 0x80, 0x83, 0x7d, 0x7d, 0x80, 0x83, 0x80, 0x80, 0x80})
	f.Add([]byte{0, 3, 0x81, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, n := int(data[0]%6), 1+int(data[1]%6)
		data = data[2:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := float64(int(data[0])-0x80) / 4
			data = data[1:]
			return v
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = next()
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = next()
			}
		}
		for i := range b {
			b[i] = next()
		}
		// A trailing byte duplicates a row, optionally with a different
		// right-hand side: redundancy and infeasibility on demand.
		if m > 1 && len(data) > 0 {
			src, dst := int(data[0]>>4)%m, int(data[0]&7)%m
			copy(a[dst], a[src])
			b[dst] = b[src]
			if data[0]&8 != 0 {
				b[dst]++
			}
		}

		wantX, wantObj, wantStatus, _ := refSolveLP(c, a, b)
		x, obj, status := SolveLP(c, a, b)
		sameRun(t, "SolveLP", lpRun{x: x, obj: obj, status: status}, lpRun{x: wantX, obj: wantObj, status: wantStatus})
		if math.IsNaN(obj) {
			t.Fatalf("objective is NaN")
		}
		for j, v := range x {
			if math.IsNaN(v) {
				t.Fatalf("x[%d] is NaN", j)
			}
		}
	})
}
