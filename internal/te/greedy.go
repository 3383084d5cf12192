package te

import (
	"cmp"
	"fmt"
	"slices"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// GreedyResult is the outcome of the greedy chunked path heuristic — the
// middle ground between plain ECMP and the LP optimum: much cheaper than
// the LP, fractional like Fibbing, but with no optimality guarantee.
type GreedyResult struct {
	MaxUtilisation float64
	// Splits per destination prefix and router, same shape as
	// MinMaxResult.Splits (feedable into fibbing.Requirement).
	Splits map[string]map[topo.NodeID]map[topo.NodeID]float64
	// Chunks is the number of placed demand chunks.
	Chunks int
}

// SolveGreedy splits every demand into `chunks` equal slices and routes
// each slice, largest demands first, on the path that minimises the
// resulting bottleneck utilisation (ties broken by IGP cost). It is the
// classic greedy multipath heuristic: fast, anytime, and usually within
// tens of percent of the LP optimum.
func SolveGreedy(t *topo.Topology, demands []topo.Demand, chunks int) (*GreedyResult, error) {
	if chunks < 1 {
		chunks = 8
	}
	// Directed router links and their running loads.
	loads := make(map[topo.LinkID]float64)

	type slice struct {
		d      topo.Demand
		volume float64
	}
	var parts []slice
	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(demands[b].Volume, demands[a].Volume) })
	for _, i := range order {
		d := demands[i]
		for c := 0; c < chunks; c++ {
			parts = append(parts, slice{d: d, volume: d.Volume / float64(chunks)})
		}
	}

	// Per-destination flow recording for split extraction.
	flows := make(map[string]map[topo.LinkID]float64)

	res := &GreedyResult{Splits: make(map[string]map[topo.NodeID]map[topo.NodeID]float64)}
	for _, s := range parts {
		p, ok := t.PrefixByName(s.d.PrefixName)
		if !ok {
			return nil, fmt.Errorf("te: unknown prefix %q", s.d.PrefixName)
		}
		sinks := make(map[topo.NodeID]bool, len(p.Attachments))
		for _, a := range p.Attachments {
			sinks[a.Node] = true
		}
		if sinks[s.d.Ingress] {
			continue
		}
		path := greedyPath(t, loads, s.d.Ingress, sinks, s.volume)
		if path == nil {
			return nil, fmt.Errorf("te: no path for slice of %q from %s",
				s.d.PrefixName, t.Name(s.d.Ingress))
		}
		if flows[s.d.PrefixName] == nil {
			flows[s.d.PrefixName] = make(map[topo.LinkID]float64)
		}
		for i := 0; i+1 < len(path); i++ {
			l, _ := t.FindLink(path[i], path[i+1])
			loads[l.ID] += s.volume
			flows[s.d.PrefixName][l.ID] += s.volume
		}
		res.Chunks++
	}

	var links []topo.Link
	for _, l := range t.Links() {
		if !t.Node(l.From).Host && !t.Node(l.To).Host {
			links = append(links, l)
		}
	}
	for name, flow := range flows {
		maxFlow := 0.0
		for _, v := range flow {
			if v > maxFlow {
				maxFlow = v
			}
		}
		eps := SolverRelTol * maxFlow // scale-relative noise floor
		removeCycles(t, links, flow, eps)
		res.Splits[name] = extractSplits(t, links, flow, eps)
	}
	res.MaxUtilisation = MaxUtilOfLoads(t, loads)
	return res, nil
}

// greedyPath finds the ingress->sink path minimising the post-placement
// bottleneck utilisation, approximated by running Dijkstra with edge cost
// = quantised utilisation-after-placement (lexicographic max-min is
// approximated by a steep convex penalty), tie-broken by IGP weight.
func greedyPath(t *topo.Topology, loads map[topo.LinkID]float64, src topo.NodeID, sinks map[topo.NodeID]bool, volume float64) []topo.NodeID {
	g := spf.NewGraph(t.NumNodes())
	for _, l := range t.Links() {
		if t.Node(l.From).Host || t.Node(l.To).Host {
			continue
		}
		cost := l.Weight
		if l.Capacity > 0 {
			util := (loads[l.ID] + volume) / l.Capacity
			// Convex penalty: cheap below 50%, prohibitive near and
			// above capacity. Scaled so the penalty dominates weights.
			penalty := int64(FortzThorupCost(util) * 1000)
			cost = l.Weight + penalty
		}
		g.AddEdge(l.From, spf.Edge{To: l.To, Weight: cost, Link: l.ID})
	}
	tree := spf.ComputeRouters(g, t, src)
	best := spf.Infinity
	var bestSink topo.NodeID = topo.NoNode
	for s := range sinks {
		if tree.Reachable(s) && tree.Dist[s] < best {
			best, bestSink = tree.Dist[s], s
		}
	}
	if bestSink == topo.NoNode {
		return nil
	}
	paths := tree.Paths(bestSink, 1)
	if len(paths) == 0 {
		return nil
	}
	return paths[0]
}
