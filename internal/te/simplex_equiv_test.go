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

// zooTopo is a topology generator at a given uniform capacity.
type zooTopo struct {
	name  string
	large bool
	build func(capacity float64) *topo.Topology
}

// oracleZoo is the scenario matrix's six topologies, built straight from
// the generators with the matrix's sizes and seeds (this package cannot
// import scenarios), then four larger ones on which the dense reference
// takes seconds.
var oracleZoo = []zooTopo{
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

// TestKernelMatchesReferenceOnMasters holds the simplex kernel to the
// parent's dense solver (reference_test.go) on the LPs the program solves:
// SolveMinMax's column-generation masters over the topology zoo × random
// demand sets (2, 5 and 12 demands, four seeds) × traffic scales
// 1e6..1e11, each at the four volume settings of demandTrain. The test
// drives the master as pathLP.solve does, and before every phase-2 run
// hands a dense copy of the master to refRunSimplex. Both sides must end
// with the same outcome and basis, every tableau entry numerically equal,
// and the same bits in every right-hand side, the objective θ's among
// them: the same pivots were taken. Entries are compared with ==, not by
// their bits: where a pivot row holds a zero the reference subtracts f·0
// and the kernel does not, which can flip the sign of a zero.
func TestKernelMatchesReferenceOnMasters(t *testing.T) {
	t.Parallel()
	runs := 0
	for _, z := range oracleZoo {
		for _, scale := range []float64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11} {
			capacity := 10 * scale
			tp := z.build(capacity)
			for _, nd := range []int{2, 5, 12} {
				for seed := int64(1); seed <= 4; seed++ {
					base := topo.RandomDemands(tp, nd, 0.1*capacity, 0.6*capacity, seed)
					for round, demands := range demandTrain(base, seed) {
						what := fmt.Sprintf("%s/%g %d demands, seed %d, round %d", z.name, scale, nd, seed, round)
						p, err := newPathLP(tp, demands)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						p.buildMaster()
						for pricing := 0; ; pricing++ {
							runs++
							ref := newRefMaster(p)
							want := refRunSimplex(ref.tab, ref.basis, ref.c, len(ref.c))
							got := p.tab.simplex(p.c)
							ref.compare(t, fmt.Sprintf("%s, pricing round %d", what, pricing), p, got, want)
							if got != simplexOptimal || !p.priceOut() {
								break
							}
						}
					}
				}
			}
		}
	}
	if runs < 10000 {
		t.Fatalf("weak coverage: %d master runs compared", runs)
	}
	t.Logf("%d master runs compared", runs)
}

// refMaster is a dense copy of a column-generation master, laid out for
// refRunSimplex: one row per tableau row, its live columns and then its
// right-hand side. The demand rows' identity columns, which the kernel
// never prices, cost +Inf, the reference's mark of a frozen column.
type refMaster struct {
	tab   [][]float64
	basis []int
	c     []float64
}

func newRefMaster(p *pathLP) refMaster {
	tab, n := p.tab, len(p.c)
	ref := refMaster{
		tab:   make([][]float64, tab.m),
		basis: slices.Clone(tab.basis),
		c:     slices.Clone(p.c),
	}
	for i := range ref.tab {
		row := tab.row(i)
		ref.tab[i] = append(slices.Clone(row[:n]), row[tab.rhs()])
	}
	for j := 0; j < tab.first; j++ {
		ref.c[j] = math.Inf(1)
	}
	return ref
}

// compare fails unless the kernel's run on p's master ended as the
// reference's did.
func (ref refMaster) compare(t *testing.T, what string, p *pathLP, got, want simplexOutcome) {
	t.Helper()
	tab, n := p.tab, len(p.c)
	if got != want {
		t.Fatalf("%s: outcome %d, reference %d", what, got, want)
	}
	if !slices.Equal(tab.basis, ref.basis) {
		t.Fatalf("%s: basis differs from the reference\n got %v\nwant %v", what, tab.basis, ref.basis)
	}
	for i, refRow := range ref.tab {
		row := tab.row(i)
		for j, v := range refRow[:n] {
			if row[j] != v {
				t.Fatalf("%s: row %d column %d = %v, reference %v", what, i, j, row[j], v)
			}
		}
		rhs, refRHS := row[tab.rhs()], refRow[n]
		if math.Float64bits(rhs) != math.Float64bits(refRHS) {
			t.Fatalf("%s: row %d right-hand side %v (%#x), reference %v (%#x)", what, i,
				rhs, math.Float64bits(rhs), refRHS, math.Float64bits(refRHS))
		}
	}
}

// demandTrain is one demand set at four volume settings: the set itself,
// a uniform ×1.7, then two rounds that move every volume on its own.
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

// TestBasicColumnsStayUnitVectors checks the invariant entering's pricing
// skip rests on: every basic column among the live ones is an exact unit
// vector, 1 in its own row and 0 in every other, and the basic marks name
// exactly the basis. Were a pivot to leave p·(1/p) in its own row, or a
// residue elsewhere, a basic column's reduced cost would no longer be an
// exact zero. It is checked after every pivot of the node-link oracle's
// cold solves on the six matrix topologies — phase 1, the artificial
// drive-out, phase 2 — and after every pivot and
// every appended row or column of SolveMinMax's column-generation master
// on the same problems: the crash basis, the phase-2 runs, and each new
// capacity row and path column between them.
func TestBasicColumnsStayUnitVectors(t *testing.T) {
	t.Parallel()
	var what string
	pivots, steps, generated := 0, 0, 0
	check := func(tab *tableau, live int) {
		marked := 0
		for _, b := range tab.basic {
			if b {
				marked++
			}
		}
		for i, col := range tab.basis {
			if col < 0 {
				continue // the crash basis has not reached this row yet
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
	scales := []float64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11}
	if testing.Short() {
		scales = []float64{1e6, 1e11} // seconds under -race otherwise
	}
	for _, z := range oracleZoo {
		if z.large {
			continue // the check is O(m²) a pivot; the matrix sizes suffice
		}
		for _, scale := range scales {
			capacity := 10 * scale
			tp := z.build(capacity)
			for _, nd := range []int{2, 5, 12} {
				for seed := int64(1); seed <= 4; seed++ {
					for round, demands := range demandTrain(topo.RandomDemands(tp, nd, 0.1*capacity, 0.6*capacity, seed), seed) {
						what = fmt.Sprintf("%s/%g %d demands, seed %d, round %d", z.name, scale, nd, seed, round)
						nl, err := buildMinMax(tp, demands)
						if err != nil {
							t.Fatal(err)
						}
						c, tab := nl.bld.tableau(len(nl.bld.terms))
						tab.onChange = func(live int) {
							pivots++
							check(tab, live)
						}
						if _, _, status, _ := tab.solveCold(c); status != Optimal {
							t.Fatalf("%s: node-link %v", what, status)
						}

						what += " (column generation)"
						p, err := newPathLP(tp, demands)
						if err != nil {
							t.Fatal(err)
						}
						p.onChange = func(live int) {
							steps++
							check(p.tab, live)
						}
						if err := p.solve(); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						generated += len(p.paths) - len(p.comms)
					}
				}
			}
		}
	}
	if pivots < 10000 || steps < 1000 || generated < 100 {
		t.Fatalf("weak coverage: %d node-link pivots, %d master steps, %d generated paths", pivots, steps, generated)
	}
	t.Logf("%d node-link pivots, %d master steps, %d generated paths checked", pivots, steps, generated)
}

// TestColdSolveAllocatesOneTableau pins LPBuilder.Solve to one copy of the
// constraint matrix: a cold solve of fat-tree k=4's node-link min-max LP
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
