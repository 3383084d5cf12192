package te

// The parent's dense solver, kept verbatim as the oracle for the
// sparse-stepped core in simplex.go (only the ref prefix on the names is
// new): solveLP, runSimplex, pivot and LPBuilder.dense exactly as they
// were when every reduced cost walked all m rows and every pivot updated
// all n+m+1 columns of every row. TestSimplexMatchesReference and
// FuzzSolveLP hold the new core to the same status, basis and float bits.
//
// The node-link min-max LP is kept as the θ* oracle for the column
// generation in colgen.go: buildMinMax is the arc-flow builder SolveMinMax
// used before, one flow variable per prefix per link and one conservation
// row per router, and nodeLinkOptimum solves it. TestMinMaxMatchesNodeLinkOracle
// and FuzzMinMax hold SolveMinMax to its optimum. refBuildMinMax is that
// builder as it was when each conservation row scanned every link, and
// TestBuildMinMaxMatchesReference holds buildMinMax to its rows.

import (
	"fmt"
	"math"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// refSolveLP is SolveLP plus the final basis (one column index per row;
// artificial columns appear as indices >= len(c) on redundant rows).
func refSolveLP(c []float64, a [][]float64, b []float64) ([]float64, float64, SimplexStatus, []int) {
	m := len(a)
	if m == 0 {
		return make([]float64, len(c)), 0, Optimal, []int{}
	}
	n := len(c)
	for i := range a {
		if len(a[i]) != n {
			panic(fmt.Sprintf("te: row %d has %d cols, want %d", i, len(a[i]), n))
		}
	}
	if len(b) != m {
		panic("te: len(b) != rows")
	}

	// Normalise to b >= 0.
	A := make([][]float64, m)
	B := make([]float64, m)
	for i := range a {
		A[i] = append([]float64(nil), a[i]...)
		B[i] = b[i]
		if B[i] < 0 {
			for j := range A[i] {
				A[i][j] = -A[i][j]
			}
			B[i] = -B[i]
		}
	}

	// Phase 1: artificial variables n..n+m-1, minimise their sum.
	total := n + m
	tab := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], A[i])
		tab[i][n+i] = 1
		tab[i][total] = B[i]
		basis[i] = n + i
	}
	phase1 := make([]float64, total)
	for j := n; j < total; j++ {
		phase1[j] = 1
	}
	switch refRunSimplex(tab, basis, phase1, total) {
	case simplexStalled:
		return nil, 0, Stalled, nil
	case simplexUnbounded:
		return nil, 0, Unbounded, nil // cannot happen in phase 1, defensive
	}
	// Check feasibility, relative to the problem's right-hand-side
	// magnitude: residual artificial mass that is pure roundoff at scale
	// 1e9 must not read as infeasibility (and would, against an absolute
	// cutoff).
	bScale := 1.0
	for _, bi := range B {
		if bi > bScale {
			bScale = bi
		}
	}
	sum := 0.0
	for i, bi := range basis {
		if bi >= n {
			sum += tab[i][total]
		}
	}
	if sum > FeasibilityRelTol*bScale {
		return nil, 0, Infeasible, nil
	}
	// Drive remaining artificial variables out of the basis. The pivot
	// element must be significant relative to its row, not in absolute
	// terms: a 1e-9 entry in a row of 1e9-sized coefficients is noise,
	// and pivoting on it would blow the tableau up.
	for i, bi := range basis {
		if bi < n {
			continue
		}
		rowScale := 1.0
		for j := 0; j < n; j++ {
			if v := math.Abs(tab[i][j]); v > rowScale {
				rowScale = v
			}
		}
		pivoted := false
		for j := 0; j < n; j++ {
			if math.Abs(tab[i][j]) > simplexEps*rowScale {
				refPivot(tab, basis, i, j, total)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row; harmless (stays with artificial at 0).
			_ = i
		}
	}

	// Phase 2: original objective, artificial columns frozen at zero.
	phase2 := make([]float64, total)
	copy(phase2, c)
	for j := n; j < total; j++ {
		phase2[j] = math.Inf(1) // never re-enter
	}
	switch refRunSimplex(tab, basis, phase2, total) {
	case simplexStalled:
		return nil, 0, Stalled, nil
	case simplexUnbounded:
		return nil, 0, Unbounded, nil
	}

	x := make([]float64, n)
	for i, bi := range basis {
		if bi < n {
			x[bi] = tab[i][total]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += c[j] * x[j]
	}
	return x, obj, Optimal, basis
}

// refRunSimplex performs primal simplex iterations on the tableau in place.
func refRunSimplex(tab [][]float64, basis []int, c []float64, total int) simplexOutcome {
	m := len(tab)
	// Generous bound on pivots: Bland's rule terminates in exact
	// arithmetic, but floating-point ties can stall large degenerate
	// problems; those report Stalled rather than spinning forever.
	limit := 200 * (m + total)
	if limit < 200000 {
		limit = 200000
	}
	// Reduced costs are computed on demand: z_j - c_j using the basis.
	// Every "is this zero?" decision below is made relative to the
	// magnitude of the terms that produced the value — an absolute
	// epsilon misreads cancellation noise as signal once coefficients
	// leave O(1).
	for iter := 0; ; iter++ {
		if iter > limit {
			return simplexStalled
		}
		// Entering column (Bland: smallest index with negative reduced cost).
		enter := -1
		for j := 0; j < total; j++ {
			if math.IsInf(c[j], 1) {
				continue // frozen artificial
			}
			rc := c[j]
			rcScale := math.Abs(c[j])
			for i := 0; i < m; i++ {
				cb := c[basis[i]]
				if math.IsInf(cb, 1) {
					cb = 0 // artificial in basis sits at value 0
				}
				term := cb * tab[i][j]
				rc -= term
				if v := math.Abs(term); v > rcScale {
					rcScale = v
				}
			}
			if rcScale < 1 {
				rcScale = 1
			}
			if rc < -simplexEps*rcScale {
				enter = j
				break
			}
		}
		if enter == -1 {
			return simplexOptimal
		}
		// Leaving row (Bland: min ratio, ties by smallest basis index).
		// Pivot eligibility is relative to the column's largest entry:
		// pivoting on an element that is noise at the column's scale
		// corrupts the basis.
		colScale := 1.0
		for i := 0; i < m; i++ {
			if v := math.Abs(tab[i][enter]); v > colScale {
				colScale = v
			}
		}
		pivotEps := simplexEps * colScale
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][enter] > pivotEps {
				ratio := tab[i][total] / tab[i][enter]
				if leave == -1 {
					best, leave = ratio, i
					continue
				}
				ratioEps := simplexEps * math.Max(1, math.Max(math.Abs(best), math.Abs(ratio)))
				if ratio < best-ratioEps ||
					(math.Abs(ratio-best) <= ratioEps && basis[i] < basis[leave]) {
					best = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return simplexUnbounded
		}
		refPivot(tab, basis, leave, enter, total)
	}
}

func refPivot(tab [][]float64, basis []int, row, col, total int) {
	p := tab[row][col]
	for j := 0; j <= total; j++ {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}

// refDense materialises the problem in standard form, adding one slack per
// <= row after the declared variables.
func refDense(bld *LPBuilder) (c []float64, a [][]float64, b []float64) {
	slacks := 0
	for _, t := range bld.types {
		if t == 'l' {
			slacks++
		}
	}
	n := bld.nvars + slacks
	c = make([]float64, n)
	copy(c, bld.obj)
	a = make([][]float64, len(bld.terms))
	b = append([]float64(nil), bld.rhs...)
	si := bld.nvars
	for i, row := range bld.terms {
		a[i] = make([]float64, n)
		for _, t := range row {
			a[i][t.idx] += t.coef
		}
		if bld.types[i] == 'l' {
			a[i][si] = 1
			si++
		}
	}
	return c, a, b
}

// minMaxCommodity is one destination prefix's aggregated demand.
type minMaxCommodity struct {
	name    string
	sinks   map[topo.NodeID]bool
	ingress map[topo.NodeID]float64
}

// minMaxProblem is a built node-link min-max LP plus its variable layout.
type minMaxProblem struct {
	bld    *LPBuilder
	links  []topo.Link
	order  []string
	byName map[string]*minMaxCommodity
	x      map[string][]int
	scale  float64
}

// nodeLinkOptimum solves the node-link LP and returns θ*, with the errors
// SolveMinMax returned when it solved this LP.
func nodeLinkOptimum(t *topo.Topology, demands []topo.Demand) (float64, error) {
	p, err := buildMinMax(t, demands)
	if err != nil {
		return 0, err
	}
	_, obj, status := p.bld.Solve()
	if status != Optimal {
		return 0, fmt.Errorf("te: min-max LP %v", status)
	}
	return obj, nil
}

// buildMinMax assembles the node-link min-max LP for the demand set
// without solving it.
func buildMinMax(t *topo.Topology, demands []topo.Demand) (*minMaxProblem, error) {
	// Collect commodities: destination prefix -> ingress -> volume.
	byName := make(map[string]*minMaxCommodity)
	var order []string
	for _, d := range demands {
		p, ok := t.PrefixByName(d.PrefixName)
		if !ok {
			return nil, fmt.Errorf("te: unknown prefix %q", d.PrefixName)
		}
		c := byName[d.PrefixName]
		if c == nil {
			c = &minMaxCommodity{
				name:    d.PrefixName,
				sinks:   make(map[topo.NodeID]bool),
				ingress: make(map[topo.NodeID]float64),
			}
			for _, a := range p.Attachments {
				c.sinks[a.Node] = true
			}
			byName[d.PrefixName] = c
			order = append(order, d.PrefixName)
		}
		if c.sinks[d.Ingress] {
			continue // demand at the attachment is delivered locally
		}
		c.ingress[d.Ingress] += d.Volume
	}
	slices.Sort(order)

	// Router-router links only, with finite capacity required.
	var links []topo.Link
	for _, l := range t.Links() {
		if t.Node(l.From).Host || t.Node(l.To).Host {
			continue
		}
		links = append(links, l)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("te: no router links")
	}

	scale := ProblemScale(t, demands)

	bld := NewLPBuilder()
	theta := bld.AddVar(1) // minimise θ

	// x[k][i]: flow of commodity k on links[i].
	x := make(map[string][]int, len(order))
	for _, name := range order {
		vars := make([]int, len(links))
		for i := range links {
			vars[i] = bld.AddVar(0)
		}
		x[name] = vars
	}

	// Conservation: for every commodity and every non-sink router:
	// out - in = ingress volume at that router. incident lists each node's
	// links (indices into links, ascending), so a row costs its router's
	// degree rather than a scan of every link.
	incident := make([][]int, t.NumNodes())
	for i, l := range links {
		incident[l.From] = append(incident[l.From], i)
		incident[l.To] = append(incident[l.To], i)
	}
	for _, name := range order {
		c := byName[name]
		for _, n := range t.Nodes() {
			if n.Host || c.sinks[n.ID] {
				continue
			}
			terms := map[int]float64{}
			for _, i := range incident[n.ID] {
				if links[i].From == n.ID {
					terms[x[name][i]] += 1
				} else {
					terms[x[name][i]] -= 1
				}
			}
			if len(terms) == 0 {
				if c.ingress[n.ID] > 0 {
					return nil, fmt.Errorf("te: ingress %s has no links", t.Name(n.ID))
				}
				continue
			}
			bld.AddEq(terms, c.ingress[n.ID]/scale)
		}
	}

	// Capacity: Σ_k x_k,e <= cap_e · θ.
	for i, l := range links {
		if l.Capacity <= 0 {
			continue // uncapacitated
		}
		terms := map[int]float64{theta: -l.Capacity / scale}
		for _, name := range order {
			terms[x[name][i]] += 1
		}
		bld.AddLe(terms, 0)
	}

	return &minMaxProblem{
		bld:    bld,
		links:  links,
		order:  order,
		byName: byName,
		x:      x,
		scale:  scale,
	}, nil
}

// refBuildMinMax is buildMinMax as it was when every conservation row
// scanned every link.
func refBuildMinMax(t *topo.Topology, demands []topo.Demand) (*minMaxProblem, error) {
	// Collect commodities: destination prefix -> ingress -> volume.
	byName := make(map[string]*minMaxCommodity)
	var order []string
	for _, d := range demands {
		p, ok := t.PrefixByName(d.PrefixName)
		if !ok {
			return nil, fmt.Errorf("te: unknown prefix %q", d.PrefixName)
		}
		c := byName[d.PrefixName]
		if c == nil {
			c = &minMaxCommodity{
				name:    d.PrefixName,
				sinks:   make(map[topo.NodeID]bool),
				ingress: make(map[topo.NodeID]float64),
			}
			for _, a := range p.Attachments {
				c.sinks[a.Node] = true
			}
			byName[d.PrefixName] = c
			order = append(order, d.PrefixName)
		}
		if c.sinks[d.Ingress] {
			continue // demand at the attachment is delivered locally
		}
		c.ingress[d.Ingress] += d.Volume
	}
	slices.Sort(order)

	// Router-router links only, with finite capacity required.
	var links []topo.Link
	for _, l := range t.Links() {
		if t.Node(l.From).Host || t.Node(l.To).Host {
			continue
		}
		links = append(links, l)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("te: no router links")
	}

	scale := ProblemScale(t, demands)

	bld := NewLPBuilder()
	theta := bld.AddVar(1) // minimise θ

	// x[k][i]: flow of commodity k on links[i].
	x := make(map[string][]int, len(order))
	for _, name := range order {
		vars := make([]int, len(links))
		for i := range links {
			vars[i] = bld.AddVar(0)
		}
		x[name] = vars
	}

	// Conservation: for every commodity and every non-sink router:
	// out - in = ingress volume at that router.
	for _, name := range order {
		c := byName[name]
		for _, n := range t.Nodes() {
			if n.Host || c.sinks[n.ID] {
				continue
			}
			terms := map[int]float64{}
			for i, l := range links {
				if l.From == n.ID {
					terms[x[name][i]] += 1
				}
				if l.To == n.ID {
					terms[x[name][i]] -= 1
				}
			}
			if len(terms) == 0 {
				if c.ingress[n.ID] > 0 {
					return nil, fmt.Errorf("te: ingress %s has no links", t.Name(n.ID))
				}
				continue
			}
			bld.AddEq(terms, c.ingress[n.ID]/scale)
		}
	}

	// Capacity: Σ_k x_k,e <= cap_e · θ.
	for i, l := range links {
		if l.Capacity <= 0 {
			continue // uncapacitated
		}
		terms := map[int]float64{theta: -l.Capacity / scale}
		for _, name := range order {
			terms[x[name][i]] += 1
		}
		bld.AddLe(terms, 0)
	}

	return &minMaxProblem{
		bld:    bld,
		links:  links,
		order:  order,
		byName: byName,
		x:      x,
		scale:  scale,
	}, nil
}
