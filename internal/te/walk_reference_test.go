package te_test

// The parent walks of the forwarding graph, verbatim but for their
// names and package qualifiers: te.LinkLoads with its map-order
// propagate, qoe.PredictPlan with topoWalk and sortedHops, and
// fibbing.CheckDelivery with its map of visit states. The programs now
// compile each view set into a fibbing.Walk; walk_equiv_test.go holds
// them to these.

import (
	"fmt"
	"math"
	"slices"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// refLinkLoads is the parent te.LinkLoads.
func refLinkLoads(t *topo.Topology, viewsByPrefix map[string]map[topo.NodeID]fibbing.RouteView, demands []topo.Demand) (map[topo.LinkID]float64, error) {
	loads := make(map[topo.LinkID]float64)
	// Group demands per prefix.
	perPrefix := make(map[string]map[topo.NodeID]float64)
	for _, d := range demands {
		if perPrefix[d.PrefixName] == nil {
			perPrefix[d.PrefixName] = make(map[topo.NodeID]float64)
		}
		perPrefix[d.PrefixName][d.Ingress] += d.Volume
	}
	names := make([]string, 0, len(perPrefix))
	for name := range perPrefix {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		views, ok := viewsByPrefix[name]
		if !ok {
			return nil, fmt.Errorf("te: no route views for prefix %q", name)
		}
		if err := propagate(t, views, perPrefix[name], loads); err != nil {
			return nil, fmt.Errorf("te: prefix %s: %w", name, err)
		}
	}
	return loads, nil
}

// propagate pushes per-ingress volumes through the forwarding DAG.
func propagate(t *topo.Topology, views map[topo.NodeID]fibbing.RouteView, ingress map[topo.NodeID]float64, loads map[topo.LinkID]float64) error {
	// Node volume = injected + received; process in topological order of
	// the forwarding DAG (views are loop-free per CheckDelivery, but we
	// guard against cycles anyway).
	indeg := make(map[topo.NodeID]int)
	for u, v := range views {
		if _, ok := indeg[u]; !ok {
			indeg[u] = 0
		}
		for nh := range v.NextHops {
			indeg[nh]++
		}
	}
	vol := make(map[topo.NodeID]float64, len(ingress))
	for u, x := range ingress {
		vol[u] += x
	}
	queue := make([]topo.NodeID, 0, len(indeg))
	for u, d := range indeg {
		if d == 0 {
			queue = append(queue, u)
		}
	}
	slices.Sort(queue)
	processed := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		processed++
		view := views[u]
		x := vol[u]
		if x > 0 && !view.Local {
			total := view.NextHops.Total()
			if total == 0 {
				return fmt.Errorf("traffic stranded at %s", t.Name(u))
			}
			for nh, w := range view.NextHops {
				share := x * float64(w) / float64(total)
				l, ok := t.FindLink(u, nh)
				if !ok {
					return fmt.Errorf("no link %s->%s", t.Name(u), t.Name(nh))
				}
				loads[l.ID] += share
				vol[nh] += share
			}
		}
		for nh := range view.NextHops {
			indeg[nh]--
			if indeg[nh] == 0 {
				queue = append(queue, nh)
			}
		}
	}
	if processed != len(indeg) {
		return fmt.Errorf("forwarding graph contains a cycle")
	}
	return nil
}

// aggregate is one (prefix, ingress) demand with its member population.
type aggregate struct {
	prefix  string
	ingress topo.NodeID
	volume  float64
	members float64
	rate    float64 // per-session offered rate: volume/members
}

// linkShare is one aggregate's offered volume on one link.
type linkShare struct {
	agg int     // index into the sorted aggregate slice
	vol float64 // offered volume (bit/s) of that aggregate on this link
}

// refPredictPlan is the parent qoe.PredictPlan.
func refPredictPlan(t *topo.Topology, views map[string]map[topo.NodeID]fibbing.RouteView, demands []topo.Demand, m qoe.Model) (qoe.PlanQoE, error) {
	aggs := collectAggregates(demands, m)
	if len(aggs) == 0 {
		return qoe.PlanQoE{}, nil
	}
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = qoe.DefaultHorizon
	}

	// Pass 1: per-aggregate offered volume on every link.
	offers := make(map[topo.LinkID][]linkShare)
	for i, a := range aggs {
		v, ok := views[a.prefix]
		if !ok {
			return qoe.PlanQoE{}, fmt.Errorf("qoe: no route views for prefix %q", a.prefix)
		}
		if err := offerVolumes(t, v, a.ingress, a.volume, i, offers); err != nil {
			return qoe.PlanQoE{}, fmt.Errorf("qoe: prefix %s: %w", a.prefix, err)
		}
	}

	// Pass 2a: water-fill each capacity-constrained link, yielding a
	// per-link per-aggregate survival factor (1 when unconstrained).
	factors := linkFactors(t, aggs, offers)

	// Pass 2b: per aggregate, bottleneck-combine the link factors along
	// its DAG to a delivered fraction, then predict the member sessions.
	var out qoe.PlanQoE
	for i, a := range aggs {
		frac := survivingFraction(t, views[a.prefix], a.ingress, i, factors)
		cfg := m.Session
		if cfg.Ladder == nil {
			cfg.Ladder = []float64{a.rate}
		}
		p := qoe.PredictSession(cfg, frac*a.rate, horizon)
		out.StallSeconds += a.members * p.StallSeconds
		out.StartupWaitSeconds += a.members * p.StartupWaitSeconds
		out.Switches += a.members * p.Switches
		out.Sessions += int(math.Round(a.members))
	}
	return out, nil
}

// collectAggregates merges demands per (prefix, ingress), attaches the
// member counts and sorts the result for deterministic iteration.
func collectAggregates(demands []topo.Demand, m qoe.Model) []aggregate {
	type key struct {
		prefix  string
		ingress topo.NodeID
	}
	merged := make(map[key]float64)
	for _, d := range demands {
		if d.Volume <= 0 || math.IsNaN(d.Volume) || math.IsInf(d.Volume, 0) {
			continue
		}
		merged[key{d.PrefixName, d.Ingress}] += d.Volume
	}
	aggs := make([]aggregate, 0, len(merged))
	for k, vol := range merged {
		n := 1
		if mm := m.Members[k.prefix]; mm != nil && mm[k.ingress] > 0 {
			n = mm[k.ingress]
		}
		aggs = append(aggs, aggregate{
			prefix:  k.prefix,
			ingress: k.ingress,
			volume:  vol,
			members: float64(n),
			rate:    vol / float64(n),
		})
	}
	slices.SortFunc(aggs, func(a, b aggregate) int {
		if a.prefix != b.prefix {
			if a.prefix < b.prefix {
				return -1
			}
			return 1
		}
		return int(a.ingress) - int(b.ingress)
	})
	return aggs
}

// topoWalk visits the forwarding DAG reachable from the rooted volume in
// a deterministic topological order, calling visit(u) for every node
// with the node's processing deferred until all its in-DAG predecessors
// ran. It mirrors te.propagate's indegree walk but always pops the
// smallest NodeID, so float accumulation order is reproducible.
func topoWalk(views map[topo.NodeID]fibbing.RouteView, visit func(u topo.NodeID) error) error {
	indeg := make(map[topo.NodeID]int, len(views))
	for u, v := range views {
		if _, ok := indeg[u]; !ok {
			indeg[u] = 0
		}
		for nh := range v.NextHops {
			indeg[nh]++
		}
	}
	queue := make([]topo.NodeID, 0, len(indeg))
	for u, d := range indeg {
		if d == 0 {
			queue = append(queue, u)
		}
	}
	slices.Sort(queue)
	processed := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		processed++
		if err := visit(u); err != nil {
			return err
		}
		nhs := sortedHops(views[u].NextHops)
		for _, nh := range nhs {
			indeg[nh]--
			if indeg[nh] == 0 {
				at, _ := slices.BinarySearch(queue, nh)
				queue = slices.Insert(queue, at, nh)
			}
		}
	}
	if processed != len(indeg) {
		return fmt.Errorf("forwarding graph contains a cycle")
	}
	return nil
}

// sortedHops returns the next hops in NodeID order.
func sortedHops(w fibbing.NextHopWeights) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(w))
	for nh := range w {
		out = append(out, nh)
	}
	slices.Sort(out)
	return out
}

// offerVolumes pushes one aggregate's volume through its forwarding DAG
// (ECMP-weight-proportional splits) and records the per-link offered
// volume under the aggregate's index.
func offerVolumes(t *topo.Topology, views map[topo.NodeID]fibbing.RouteView, ingress topo.NodeID, volume float64, agg int, offers map[topo.LinkID][]linkShare) error {
	vol := map[topo.NodeID]float64{ingress: volume}
	return topoWalk(views, func(u topo.NodeID) error {
		view := views[u]
		x := vol[u]
		if x <= 0 || view.Local {
			return nil
		}
		total := view.NextHops.Total()
		if total == 0 {
			return fmt.Errorf("traffic stranded at %s", t.Name(u))
		}
		for _, nh := range sortedHops(view.NextHops) {
			share := x * float64(view.NextHops[nh]) / float64(total)
			l, ok := t.FindLink(u, nh)
			if !ok {
				return fmt.Errorf("no link %s->%s", t.Name(u), t.Name(nh))
			}
			offers[l.ID] = append(offers[l.ID], linkShare{agg: agg, vol: share})
			vol[nh] += share
		}
		return nil
	})
}

// linkFactors water-fills every capacity-constrained link and returns,
// per link, the survival factor of each aggregate present on it: the
// fraction of a member session's rate that survives that hop under
// max-min fair sharing.
func linkFactors(t *topo.Topology, aggs []aggregate, offers map[topo.LinkID][]linkShare) map[topo.LinkID]map[int]float64 {
	ids := make([]topo.LinkID, 0, len(offers))
	for id := range offers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	factors := make(map[topo.LinkID]map[int]float64, len(offers))
	for _, id := range ids {
		cap := t.Link(id).Capacity
		if cap <= 0 {
			continue // unconstrained link: factor 1 for everyone
		}
		shares := offers[id]
		// Merge duplicate entries for the same aggregate (a DAG can route
		// an aggregate onto the same link via several branches).
		byAgg := make(map[int]float64, len(shares))
		total := 0.0
		for _, s := range shares {
			byAgg[s.agg] += s.vol
			total += s.vol
		}
		if total <= cap {
			continue
		}
		// Water-fill: fractional session count per aggregate is the
		// member count scaled by the share of the aggregate's volume that
		// reaches this link; each such session asks for its rate r.
		type group struct {
			agg  int
			n    float64
			rate float64
		}
		groups := make([]group, 0, len(byAgg))
		for agg, vol := range byAgg {
			a := aggs[agg]
			groups = append(groups, group{agg: agg, n: a.members * vol / a.volume, rate: a.rate})
		}
		slices.SortFunc(groups, func(x, y group) int {
			if x.rate != y.rate {
				if x.rate < y.rate {
					return -1
				}
				return 1
			}
			return x.agg - y.agg
		})
		remCap, remN := cap, 0.0
		for _, g := range groups {
			remN += g.n
		}
		share := 0.0
		for _, g := range groups {
			if remN <= 0 {
				break
			}
			share = remCap / remN
			if g.rate <= share {
				// Fully satisfied demand: remove it and water-fill the rest.
				remCap -= g.n * g.rate
				remN -= g.n
				continue
			}
			break
		}
		f := make(map[int]float64, len(groups))
		for _, g := range groups {
			if g.rate <= share {
				f[g.agg] = 1
			} else if g.rate > 0 {
				f[g.agg] = share / g.rate
			}
		}
		factors[id] = f
	}
	return factors
}

// survivingFraction bottleneck-combines the per-link survival factors
// along one aggregate's forwarding DAG: traffic entering a link is
// damped to min(carried-so-far, link factor); at merge points the
// per-path minima combine by volume-weighted mean. The result is the
// fraction of a member session's rate that reaches the prefix.
func survivingFraction(t *topo.Topology, views map[topo.NodeID]fibbing.RouteView, ingress topo.NodeID, agg int, factors map[topo.LinkID]map[int]float64) float64 {
	arrived := map[topo.NodeID]float64{ingress: 1}
	damp := map[topo.NodeID]float64{ingress: 1} // arrival-weighted mean min-factor
	delivered := 0.0
	err := topoWalk(views, func(u topo.NodeID) error {
		view := views[u]
		a := arrived[u]
		if a <= 0 {
			return nil
		}
		if view.Local {
			delivered += a * damp[u]
			return nil
		}
		total := view.NextHops.Total()
		if total == 0 {
			return nil // stranded; offerVolumes already rejected this DAG
		}
		for _, nh := range sortedHops(view.NextHops) {
			share := a * float64(view.NextHops[nh]) / float64(total)
			phi := 1.0
			if l, ok := t.FindLink(u, nh); ok {
				if f, ok := factors[l.ID]; ok {
					if v, ok := f[agg]; ok {
						phi = v
					}
				}
			}
			m := math.Min(damp[u], phi)
			// Volume-weighted mean of the per-path min factors at the
			// merge point: damp holds sum(a_e*m_e)/sum(a_e).
			prev := arrived[nh]
			arrived[nh] = prev + share
			if arrived[nh] > 0 {
				damp[nh] = (damp[nh]*prev + m*share) / arrived[nh]
			}
		}
		return nil
	})
	if err != nil {
		return 0
	}
	if delivered < 0 {
		return 0
	}
	return math.Min(1, delivered)
}

// refCheckDelivery is the parent fibbing.CheckDelivery.
func refCheckDelivery(t *topo.Topology, views map[topo.NodeID]fibbing.RouteView) error {
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // proven to deliver
	)
	state := make(map[topo.NodeID]int, len(views))
	var visit func(u topo.NodeID) error
	visit = func(u topo.NodeID) error {
		v, ok := views[u]
		if !ok {
			return fmt.Errorf("fibbing: traffic forwarded to %s which has no route", t.Name(u))
		}
		if v.Local {
			return nil
		}
		switch state[u] {
		case grey:
			return fmt.Errorf("fibbing: forwarding loop through %s", t.Name(u))
		case black:
			return nil
		}
		if len(v.NextHops) == 0 {
			return fmt.Errorf("fibbing: %s has no next hops and is not local", t.Name(u))
		}
		state[u] = grey
		for nh := range v.NextHops {
			if err := visit(nh); err != nil {
				return err
			}
		}
		state[u] = black
		return nil
	}
	for u, v := range views {
		if v.Dist == spf.Infinity && !v.Local {
			continue // unreachable routers carry no traffic
		}
		if err := visit(u); err != nil {
			return err
		}
	}
	return nil
}
