package te

import (
	"math"

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
// the demand set. The LP is in path form — one flow variable per
// (prefix, ingress) path — and solved by column generation (colgen.go):
// each commodity starts on its IGP shortest path, and pricing adds the
// shortest path under the dual link prices until none has a negative
// reduced cost. LP duality makes θ* the optimum of the arc-flow LP over
// every path, so demands to prefixes with multiple attachments may be
// absorbed at any attachment.
//
// The LP is solved in normalised units: every capacity and demand volume
// is divided by ProblemScale(t, demands) before the master is built and
// the flows are multiplied back afterwards, so the solve — and therefore
// the splits Fibbing realises — is invariant under uniform rescaling of
// the traffic (Mbit/s and 100 Gbit/s versions of the same relative
// problem produce the same routing). θ* is dimensionless and needs no
// rescaling.
//
// Host nodes never transit: only router-to-router links carry flow, and a
// demand names the router it enters at. The result does not depend on the
// order of demands.
func SolveMinMax(t *topo.Topology, demands []topo.Demand) (*MinMaxResult, error) {
	p, err := newPathLP(t, demands)
	if err != nil {
		return nil, err
	}
	if err := p.solve(); err != nil {
		return nil, err
	}
	return p.result(), nil
}

// result converts the master's optimum back into a MinMaxResult in bit/s:
// a prefix's flow on a link is the sum of its paths' flows there.
func (p *pathLP) result() *MinMaxResult {
	tab := p.tab
	x := make([]float64, tab.n)
	for i, b := range tab.basis {
		x[b] = tab.row(i)[tab.rhs()]
	}
	res := &MinMaxResult{
		MaxUtilisation: x[p.theta],
		Flow:           make(map[string]map[topo.LinkID]float64, len(p.dests)),
		Splits:         make(map[string]map[topo.NodeID]map[topo.NodeID]float64, len(p.dests)),
	}
	for _, dest := range p.dests {
		// Per-link flow below SolverRelTol of the commodity's own volume
		// is solver noise, whatever the absolute traffic scale; keeping it
		// would fabricate spurious split ratios for the quantiser to
		// honour with real ECMP weights.
		volume := 0.0
		flow := make(map[topo.LinkID]float64)
		for _, k := range dest.comms {
			volume += p.comms[k].volume
			for _, i := range p.comms[k].paths {
				path := p.paths[i]
				if f := x[path.col]; f > 0 {
					for _, l := range path.links {
						flow[p.links[l].ID] += f
					}
				}
			}
		}
		eps := SolverRelTol * volume
		if eps == 0 {
			eps = SolverRelTol // zero-volume commodity: any flow is noise
		}
		for id, v := range flow {
			if v <= eps {
				delete(flow, id)
			}
		}
		// Paths of two ingresses can cross a link in opposite directions.
		removeCycles(p.topo, p.links, flow, eps)
		res.Splits[dest.name] = extractSplits(p.topo, p.links, flow, eps)
		for id := range flow {
			flow[id] *= p.scale // back to bit/s
		}
		res.Flow[dest.name] = flow
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

// WarmLPStats counts a MinMaxSolver's solves.
type WarmLPStats struct {
	// Deprecated: always zero. The LP has no warm-start path: column
	// generation rebuilds its master for every solve. Kept because bench/
	// reads it.
	Warm uint64 `json:"warm"`
	// Cold counts successful solves.
	Cold uint64 `json:"cold"`
	// Deprecated: always zero, as Warm.
	Fallback uint64 `json:"fallback"`
}

// MinMaxSolver is SolveMinMax with a solve counter. The zero value is
// ready to use. It is not safe for concurrent use: the planner calls it
// from the scheduler's one goroutine.
type MinMaxSolver struct {
	stats WarmLPStats
}

// NewMinMaxSolver returns a solver with zeroed counters.
func NewMinMaxSolver() *MinMaxSolver { return &MinMaxSolver{} }

// Solve is SolveMinMax, counted.
func (s *MinMaxSolver) Solve(t *topo.Topology, demands []topo.Demand) (*MinMaxResult, error) {
	res, err := SolveMinMax(t, demands)
	if err == nil {
		s.stats.Cold++
	}
	return res, err
}

// Stats returns a snapshot of the solve counters.
func (s *MinMaxSolver) Stats() WarmLPStats {
	return s.stats
}
