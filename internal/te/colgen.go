package te

// The min-max LP in path form, solved by column generation.
//
// The master problem has one flow variable per generated path plus θ:
//
//	minimise θ
//	subject to Σ_{p ∈ P_k} f_p = d_k                for every commodity k
//	           Σ_{p ∋ e} f_p − c_e·θ + s_e = 0      for every capacitated link e a path uses
//	           f, θ, s ≥ 0
//
// A link no generated path uses cannot bind, so its capacity row is added
// only when a path first crosses it. Pricing is the LP dual of the
// node-link formulation: with y_e ≥ 0 the negated capacity-row duals and
// π_k the demand-row duals, a path of commodity k has reduced cost
// Σ_{e ∈ p} y_e − π_k, so one shortest-path tree per destination under y
// finds every commodity's most negative column. When none is negative the
// master's optimum is optimal over every path, which is the node-link θ*.
//
// The master keeps one tableau across pricing rounds. Its first K columns
// are identity columns for the demand rows, and each capacity row's slack
// is its identity column, so the tableau always holds B⁻¹: a new path's
// column is B⁻¹a, the sum of the identity columns of the rows it touches,
// and the duals are θ's row of B⁻¹.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// pathLP is one min-max problem: its commodities, the paths generated for
// them so far, and the master over those paths.
type pathLP struct {
	topo  *topo.Topology
	links []topo.Link // router-to-router links: the only ones flow may use
	// inStart/inLinks list each node's router in-links (indices into
	// links), nodes in ID order: inLinks[inStart[v]:inStart[v+1]].
	inStart, inLinks []int32
	scale            float64
	dests            []destination // sorted by prefix name
	comms            []commodity   // sorted by (prefix, ingress); k owns demand row k
	paths            []lpPath

	// The master. Columns 0..K-1 are the demand rows' identity columns,
	// then θ, then slacks and paths in the order they were added. Rows
	// 0..K-1 are the demand rows, then the capacity rows.
	tab    *tableau
	c      []float64 // cost per column: 1 on θ, 0 elsewhere
	theta  int
	capRow []int // per link, its capacity row, or -1
	ident  []int // per row, its identity column

	// Pricing state: the link prices y and commodity duals π of the last
	// round, and the shortest-path scratch.
	price []float64
	pi    []float64
	sp    shortestPaths

	// onChange, when set, becomes the tableau's onChange hook.
	onChange func(live int)
}

// destination is one demanded prefix and its commodities.
type destination struct {
	name   string
	attach []topo.Attachment
	sink   []bool // per node
	comms  []int  // indices into pathLP.comms
}

// commodity is the demand of one prefix entering at one router.
type commodity struct {
	dest    int
	ingress topo.NodeID
	volume  float64 // normalised by the problem scale
	paths   []int   // indices into pathLP.paths, in generation order
}

// lpPath is one generated column.
type lpPath struct {
	comm  int
	links []int32 // indices into pathLP.links, ingress to sink
	col   int
}

// newPathLP collects the commodities and their IGP seed paths. A demand
// entering at one of its prefix's attachments is delivered locally and
// does not become a commodity, nor does one entering at a host or with no
// volume: none of them puts flow on a router link.
func newPathLP(t *topo.Topology, demands []topo.Demand) (*pathLP, error) {
	p := &pathLP{topo: t, scale: ProblemScale(t, demands)}
	byName := make(map[string]int)
	for _, d := range demands {
		if _, ok := byName[d.PrefixName]; ok {
			continue
		}
		pr, ok := t.PrefixByName(d.PrefixName)
		if !ok {
			return nil, fmt.Errorf("te: unknown prefix %q", d.PrefixName)
		}
		byName[d.PrefixName] = len(p.dests)
		dest := destination{name: pr.Name, attach: pr.Attachments, sink: make([]bool, t.NumNodes())}
		for _, a := range pr.Attachments {
			dest.sink[a.Node] = true
		}
		p.dests = append(p.dests, dest)
	}
	slices.SortFunc(p.dests, func(a, b destination) int { return cmp.Compare(a.name, b.name) })
	for i, dest := range p.dests {
		byName[dest.name] = i
	}

	// Volumes are summed per (prefix, ingress) in sorted order, so the sum
	// — and every bit downstream of it — does not depend on the order the
	// demands came in.
	type entry struct {
		dest    int
		ingress topo.NodeID
		volume  float64
	}
	var entries []entry
	for _, d := range demands {
		di := byName[d.PrefixName]
		if p.dests[di].sink[d.Ingress] || t.Node(d.Ingress).Host {
			continue
		}
		entries = append(entries, entry{di, d.Ingress, d.Volume})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := cmp.Compare(a.dest, b.dest); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ingress, b.ingress); c != 0 {
			return c
		}
		return cmp.Compare(a.volume, b.volume)
	})
	for i := 0; i < len(entries); {
		e, sum := entries[i], 0.0
		for ; i < len(entries) && entries[i].dest == e.dest && entries[i].ingress == e.ingress; i++ {
			sum += entries[i].volume
		}
		if sum > 0 {
			p.dests[e.dest].comms = append(p.dests[e.dest].comms, len(p.comms))
			p.comms = append(p.comms, commodity{dest: e.dest, ingress: e.ingress, volume: sum / p.scale})
		}
	}

	linked := make([]bool, t.NumNodes())
	counts := make([]int32, t.NumNodes()+1)
	for _, l := range t.Links() {
		if t.Node(l.From).Host || t.Node(l.To).Host {
			continue
		}
		p.links = append(p.links, l)
		linked[l.From], linked[l.To] = true, true
		counts[l.To+1]++
	}
	if len(p.links) == 0 {
		return nil, fmt.Errorf("te: no router links")
	}
	for v := 1; v < len(counts); v++ {
		counts[v] += counts[v-1]
	}
	p.inStart = slices.Clone(counts)
	p.inLinks = make([]int32, len(p.links))
	for i, l := range p.links {
		p.inLinks[counts[l.To]] = int32(i)
		counts[l.To]++
	}
	for _, c := range p.comms {
		if !linked[c.ingress] {
			return nil, fmt.Errorf("te: ingress %s has no links", t.Name(c.ingress))
		}
	}

	// Seed each commodity with its IGP shortest path.
	p.sp.init(t.NumNodes())
	weights := make([]float64, len(p.links))
	for i, l := range p.links {
		weights[i] = float64(l.Weight)
	}
	for di := range p.dests {
		dest := &p.dests[di]
		if len(dest.comms) == 0 {
			continue
		}
		p.sp.run(p, dest, weights, true)
		for _, k := range dest.comms {
			ingress := p.comms[k].ingress
			if math.IsInf(p.sp.dist[ingress], 1) {
				return nil, fmt.Errorf("te: min-max LP %v", Infeasible)
			}
			p.addPathRecord(k, p.sp.path(p, dest, ingress))
		}
	}
	return p, nil
}

// addPathRecord records a path for commodity k without touching the
// master; the caller gives it its column.
func (p *pathLP) addPathRecord(k int, links []int32) int {
	p.comms[k].paths = append(p.comms[k].paths, len(p.paths))
	p.paths = append(p.paths, lpPath{comm: k, links: links, col: -1})
	return len(p.paths) - 1
}

// solve builds the master on the seed paths and alternates phase-2
// simplex with pricing until no path prices out.
func (p *pathLP) solve() error {
	p.buildMaster()
	// Every round adds at least one path no earlier round added, so the
	// loop ends in exact arithmetic; the bound catches rounding that keeps
	// finding new, barely negative paths.
	limit := 100 * (len(p.links) + len(p.comms))
	for round := 0; ; round++ {
		switch p.tab.simplex(p.c) {
		case simplexStalled:
			return fmt.Errorf("te: min-max LP %v", Stalled)
		case simplexUnbounded:
			return fmt.Errorf("te: min-max LP %v", Unbounded) // θ ≥ 0 bounds it; defensive
		}
		if !p.priceOut() {
			return nil
		}
		if round >= limit {
			return fmt.Errorf("te: min-max LP %v", Stalled)
		}
	}
}

// buildMaster lays out the master over the seed paths and makes its crash
// basis feasible without a phase 1: each seed path is basic in its demand
// row, θ in the row of the hottest seed link, and every other capacity
// row keeps its slack.
func (p *pathLP) buildMaster() {
	K := len(p.comms)
	p.capRow = make([]int, len(p.links))
	for i := range p.capRow {
		p.capRow[i] = -1
	}
	for _, path := range p.paths {
		for _, l := range path.links {
			if p.links[l].Capacity > 0 {
				p.capRow[l] = 0 // marked; numbered below, in link order
			}
		}
	}
	m := K
	for l, r := range p.capRow {
		if r == 0 {
			p.capRow[l] = m
			m++
		}
	}
	// Columns: K identities, θ, one slack per capacity row, one per seed.
	n := K + 1 + (m - K) + len(p.paths)
	t := newTableau(m, n, n)
	t.first = K
	t.onChange = p.onChange
	p.tab, p.theta = t, K
	p.ident = make([]int, m)
	for k, c := range p.comms {
		row := t.row(k)
		row[k] = 1
		row[t.rhs()] = c.volume
		p.ident[k] = k
	}
	for l, r := range p.capRow {
		if r >= 0 {
			row := t.row(r)
			row[p.theta] = -p.links[l].Capacity / p.scale
			row[r+1] = 1
			p.ident[r] = r + 1
			t.setBasic(r, r+1)
		}
	}
	for i := range p.paths {
		path := &p.paths[i]
		path.col = K + 1 + (m - K) + i
		t.row(path.comm)[path.col] = 1
		for _, l := range path.links {
			if r := p.capRow[l]; r >= 0 {
				t.row(r)[path.col] = 1
			}
		}
	}
	p.c = make([]float64, n)
	p.c[p.theta] = 1

	for _, path := range p.paths {
		t.pivot(path.comm, path.col, n)
	}
	// A capacity row now reads −c_e·θ + s_e − (its seed paths' demand
	// identities) = −load_e. θ enters the row with the largest
	// load_e/c_e, which leaves every other row's slack at
	// c_e·(θ₀ − load_e/c_e) ≥ 0.
	hot, hotUtil := -1, 0.0
	for r := K; r < m; r++ {
		row := t.row(r)
		if u := row[t.rhs()] / row[p.theta]; hot == -1 || u > hotUtil {
			hot, hotUtil = r, u
		}
	}
	if hot >= 0 {
		t.pivot(hot, p.theta, n)
	}
	// Those slacks are ≥ 0 in exact arithmetic; a negative one is the
	// rounding of c_e·(load_h/c_h) − load_e on a link as hot as the
	// hottest.
	for r := K; r < m; r++ {
		if row := t.row(r); row[t.rhs()] < 0 {
			row[t.rhs()] = 0
		}
	}
	p.price = make([]float64, len(p.links))
	p.pi = make([]float64, K)
}

// thetaRow returns the row θ is basic in, or -1.
func (p *pathLP) thetaRow() int {
	for i, b := range p.tab.basis {
		if b == p.theta {
			return i
		}
	}
	return -1
}

// priceOut reads the duals off θ's row — the only basic variable with a
// cost, so c_B·B⁻¹ is that row of B⁻¹ — and adds, per commodity, its
// shortest path under the link prices when that path has a negative
// reduced cost and is new. It reports whether it added a path.
func (p *pathLP) priceOut() bool {
	t := p.tab
	clear(p.price)
	clear(p.pi)
	if r := p.thetaRow(); r >= 0 {
		row := t.row(r)
		for l, cr := range p.capRow {
			if cr >= 0 {
				// rc(s_e) = −row[s_e] ≥ 0 at optimality; a negative value
				// is rounding, and Dijkstra needs non-negative lengths.
				p.price[l] = max(0, -row[p.ident[cr]])
			}
		}
		copy(p.pi, row[:len(p.comms)])
	}
	added := false
	for di := range p.dests {
		dest := &p.dests[di]
		if len(dest.comms) == 0 {
			continue
		}
		p.sp.run(p, dest, p.price, false)
		for _, k := range dest.comms {
			pi := p.pi[k]
			if !(p.sp.dist[p.comms[k].ingress] < pi-SolverRelTol*max(1, math.Abs(pi))) {
				continue
			}
			links := p.sp.path(p, dest, p.comms[k].ingress)
			if slices.ContainsFunc(p.comms[k].paths, func(i int) bool { return slices.Equal(p.paths[i].links, links) }) {
				continue
			}
			p.addPath(k, links)
			added = true
		}
	}
	return added
}

// addPath appends a priced-out path as the column B⁻¹a, first adding a
// capacity row for every capacitated link on it that has none.
func (p *pathLP) addPath(k int, links []int32) {
	for _, l := range links {
		if p.links[l].Capacity > 0 && p.capRow[l] < 0 {
			p.addCapRow(l)
		}
	}
	t := p.tab
	col := make([]float64, t.m)
	add := func(r int) {
		for i, j := 0, p.ident[r]; i < t.m; i, j = i+1, j+t.stride {
			col[i] += t.a[j]
		}
	}
	add(k)
	for _, l := range links {
		if r := p.capRow[l]; r >= 0 {
			add(r)
		}
	}
	i := p.addPathRecord(k, links)
	p.paths[i].col = t.addColumn(col)
	p.c = append(p.c, 0)
}

// addCapRow appends link l's capacity row with its slack basic. In the
// original matrix the row holds only −c_e on θ and 1 on the slack: no
// generated path crosses l yet. Its canonical form eliminates θ when θ is
// basic, which adds c_e times θ's row.
func (p *pathLP) addCapRow(l int32) {
	t := p.tab
	s := t.addColumn(make([]float64, t.m))
	p.c = append(p.c, 0)
	thetaRow := p.thetaRow()
	row := t.addRow()
	row[s] = 1
	row[p.theta] = -p.links[l].Capacity / p.scale
	if thetaRow >= 0 {
		f := row[p.theta]
		for j, v := range t.row(thetaRow) {
			if v != 0 {
				row[j] -= f * v
			}
		}
	}
	p.capRow[l] = t.m - 1
	p.ident = append(p.ident, s)
	t.setBasic(t.m-1, s)
}

// shortestPaths is the reverse Dijkstra the seed paths and pricing share:
// from a destination's attachments back over router links, never through
// another attachment (flow is absorbed at the first one it reaches).
// Equal distances are broken by hop count, then by the next hop's ID, so
// the tree is a function of its inputs alone.
type shortestPaths struct {
	dist []float64
	hops []int32
	next []int32 // per node, its link toward the sinks (index into links), -1 at a sink
	done []bool
	heap []spItem
}

type spItem struct {
	dist float64
	hops int32
	node topo.NodeID
}

func (a spItem) less(b spItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

func (s *shortestPaths) init(nodes int) {
	s.dist = make([]float64, nodes)
	s.hops = make([]int32, nodes)
	s.next = make([]int32, nodes)
	s.done = make([]bool, nodes)
}

// run computes the tree for dest under the per-link lengths; with costs
// set, each attachment starts at its announced cost, as in the IGP.
func (s *shortestPaths) run(p *pathLP, dest *destination, lengths []float64, costs bool) {
	for v := range s.dist {
		s.dist[v], s.hops[v], s.next[v], s.done[v] = math.Inf(1), 0, -1, false
	}
	s.heap = s.heap[:0]
	for _, a := range dest.attach {
		d := 0.0
		if costs {
			d = float64(a.Cost)
		}
		if d < s.dist[a.Node] {
			s.dist[a.Node] = d
			s.push(spItem{d, 0, a.Node})
		}
	}
	for len(s.heap) > 0 {
		it := s.pop()
		v := it.node
		if s.done[v] {
			continue
		}
		s.done[v] = true
		for _, li := range p.inLinks[p.inStart[v]:p.inStart[v+1]] {
			u := p.links[li].From
			if s.done[u] || dest.sink[u] {
				continue
			}
			d, h := it.dist+lengths[li], it.hops+1
			if d < s.dist[u] || d == s.dist[u] && (h < s.hops[u] || h == s.hops[u] && v < p.links[s.next[u]].To) {
				s.dist[u], s.hops[u], s.next[u] = d, h, li
				s.push(spItem{d, h, u})
			}
		}
	}
}

// path follows the tree from u to a sink.
func (s *shortestPaths) path(p *pathLP, dest *destination, u topo.NodeID) []int32 {
	var links []int32
	for !dest.sink[u] {
		l := s.next[u]
		links = append(links, l)
		u = p.links[l].To
	}
	return links
}

func (s *shortestPaths) push(it spItem) {
	s.heap = append(s.heap, it)
	for i := len(s.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.heap[i].less(s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *shortestPaths) pop() spItem {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].less(h[small]) {
			small = l
		}
		if r < len(h) && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.heap = h
	return top
}
