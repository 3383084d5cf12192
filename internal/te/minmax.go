package te

import (
	"fmt"
	"math"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// MinMaxResult is the solution of the min-max link-utilisation
// multicommodity-flow problem (the optimum the paper's §2 references).
type MinMaxResult struct {
	// MaxUtilisation is the optimal value θ* = max_e load_e / cap_e.
	MaxUtilisation float64
	// Flow is, per destination prefix name, the flow on every directed
	// link (bit/s), cycle-free.
	Flow map[string]map[topo.LinkID]float64
	// Splits gives, per destination and router, the fraction of that
	// router's traffic to the destination sent to each next hop. This is
	// the input Fibbing turns into duplicated fake nodes.
	Splits map[string]map[topo.NodeID]map[topo.NodeID]float64
}

// SolveMinMax computes the optimal min-max link utilisation routing for
// the demand set using an arc-flow LP per destination (commodities to the
// same destination aggregate). Demands to prefixes with multiple
// attachments may be absorbed at any attachment.
//
// The LP is solved in normalised units: every capacity and demand volume
// is divided by ProblemScale(t, demands) before the tableau is built and
// the flows are multiplied back afterwards, so the solve — and therefore
// the splits Fibbing realises — is invariant under uniform rescaling of
// the traffic (Mbit/s and 100 Gbit/s versions of the same relative
// problem produce the same routing). θ* is dimensionless and needs no
// rescaling.
//
// Host nodes never transit: only router-to-router links enter the flow
// graph. Host access links are not needed even as entry points, because
// every demand names the router it enters at.
func SolveMinMax(t *topo.Topology, demands []topo.Demand) (*MinMaxResult, error) {
	p, err := buildMinMax(t, demands)
	if err != nil {
		return nil, err
	}
	sol, obj, status := p.bld.Solve()
	if status != Optimal {
		return nil, fmt.Errorf("te: min-max LP %v", status)
	}
	return p.extract(t, sol, obj), nil
}

// minMaxCommodity is one destination prefix's aggregated demand.
type minMaxCommodity struct {
	name    string
	sinks   map[topo.NodeID]bool
	ingress map[topo.NodeID]float64
}

// minMaxProblem is a built min-max LP plus the metadata needed to turn
// its solution vector back into flows and splits.
type minMaxProblem struct {
	bld    *LPBuilder
	links  []topo.Link
	order  []string
	byName map[string]*minMaxCommodity
	x      map[string][]int
	scale  float64
}

// buildMinMax assembles the min-max LP for the demand set without solving
// it, so cold (Solve) and warm (SolveFromBasis) paths share one build.
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

// extract converts an optimal solution vector of the built LP back into a
// MinMaxResult in bit/s.
func (p *minMaxProblem) extract(t *topo.Topology, sol []float64, obj float64) *MinMaxResult {
	links, order, byName, x, scale := p.links, p.order, p.byName, p.x, p.scale
	res := &MinMaxResult{
		MaxUtilisation: obj,
		Flow:           make(map[string]map[topo.LinkID]float64, len(order)),
		Splits:         make(map[string]map[topo.NodeID]map[topo.NodeID]float64, len(order)),
	}
	for _, name := range order {
		// Per-link flow below SolverRelTol of the commodity's own volume
		// is solver noise, whatever the absolute traffic scale; keeping it
		// would fabricate spurious split ratios for the quantiser to
		// honour with real ECMP weights.
		volume := 0.0
		for _, v := range byName[name].ingress {
			volume += v / scale
		}
		eps := SolverRelTol * volume
		if eps == 0 {
			eps = SolverRelTol // zero-volume commodity: any flow is noise
		}
		flow := make(map[topo.LinkID]float64, len(links))
		for i, l := range links {
			if v := sol[x[name][i]]; v > eps {
				flow[l.ID] = v
			}
		}
		removeCycles(t, links, flow, eps)
		res.Splits[name] = extractSplits(t, links, flow, eps)
		for id := range flow {
			flow[id] *= scale // back to bit/s
		}
		res.Flow[name] = flow
	}
	return res
}

// removeCycles cancels flow cycles in place (LP optima may contain
// zero-impact circulations that would confuse split extraction). eps is
// the caller's noise threshold: flow at or below it is treated as absent.
func removeCycles(t *topo.Topology, links []topo.Link, flow map[topo.LinkID]float64, eps float64) {
	// The support graph is built once, in links order. Cancelling a cycle
	// only ever removes flow, so the search skips the links that have
	// dropped out since instead of rebuilding the graph.
	s := cycleSearch{
		links: links,
		flow:  flow,
		eps:   eps,
		out:   make([][]int32, t.NumNodes()),
		state: make([]uint8, t.NumNodes()),
	}
	for i, l := range links {
		if flow[l.ID] > eps {
			s.out[l.From] = append(s.out[l.From], int32(i))
		}
	}
	for iter := 0; iter < len(links)+1; iter++ {
		cycle := s.find()
		if cycle == nil {
			return
		}
		min := math.Inf(1)
		for _, i := range cycle {
			if v := flow[links[i].ID]; v < min {
				min = v
			}
		}
		for _, i := range cycle {
			id := links[i].ID
			flow[id] -= min
			if flow[id] <= eps {
				delete(flow, id)
			}
		}
	}
}

// cycleSearch is the depth-first search removeCycles repeats, with the
// support graph and the scratch it reuses from one search to the next.
type cycleSearch struct {
	links []topo.Link
	flow  map[topo.LinkID]float64
	eps   float64
	out   [][]int32 // per node, its out-links that carried flow at the start (indices into links)
	state []uint8   // per node: white, grey (on the current path) or black
	stack []int32   // the current path
}

const (
	white = iota
	grey
	black
)

// find returns the links of one directed cycle in the support graph, or
// nil. Roots are tried in the order nodes first appear in links, never in
// map order, so which cycle comes first is a function of the input alone.
func (s *cycleSearch) find() []int32 {
	clear(s.state)
	for i := range s.links {
		if u := s.links[i].From; s.state[u] == white {
			s.stack = s.stack[:0]
			if s.visit(u) {
				return s.stack
			}
		}
	}
	return nil
}

// visit walks on from u; on true, s.stack holds exactly the cycle found.
func (s *cycleSearch) visit(u topo.NodeID) bool {
	s.state[u] = grey
	for _, i := range s.out[u] {
		l := &s.links[i]
		if s.flow[l.ID] <= s.eps {
			continue // cancelled by an earlier cycle
		}
		switch s.state[l.To] {
		case grey:
			// l closes a cycle: drop the path that led to l.To.
			s.stack = append(s.stack, i)
			start := 0
			for s.links[s.stack[start]].From != l.To {
				start++
			}
			s.stack = s.stack[start:]
			return true
		case white:
			s.stack = append(s.stack, i)
			if s.visit(l.To) {
				return true
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
	}
	s.state[u] = black
	return false
}

// extractSplits converts per-link flow into per-router next-hop fractions,
// ignoring flow at or below the caller's noise threshold eps.
func extractSplits(t *topo.Topology, links []topo.Link, flow map[topo.LinkID]float64, eps float64) map[topo.NodeID]map[topo.NodeID]float64 {
	outFlow := make(map[topo.NodeID]map[topo.NodeID]float64)
	totals := make(map[topo.NodeID]float64)
	for _, l := range links {
		v := flow[l.ID]
		if v <= eps {
			continue
		}
		if outFlow[l.From] == nil {
			outFlow[l.From] = make(map[topo.NodeID]float64)
		}
		outFlow[l.From][l.To] += v
		totals[l.From] += v
	}
	splits := make(map[topo.NodeID]map[topo.NodeID]float64, len(outFlow))
	for u, nh := range outFlow {
		s := make(map[topo.NodeID]float64, len(nh))
		for v, f := range nh {
			s[v] = f / totals[u]
		}
		splits[u] = s
	}
	return splits
}

// MaxUtilOfLoads computes max_e load_e/cap_e for a load map.
func MaxUtilOfLoads(t *topo.Topology, loads map[topo.LinkID]float64) float64 {
	max := 0.0
	for id, load := range loads {
		l := t.Link(id)
		if l.Capacity <= 0 {
			continue
		}
		if u := load / l.Capacity; u > max {
			max = u
		}
	}
	return max
}
