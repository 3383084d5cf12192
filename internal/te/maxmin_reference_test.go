package te_test

// The exact reference for qoe.PredictPlan's values: every (prefix,
// ingress) aggregate expanded into its forwarding paths over the views'
// maps, and a water level raised over them, event by event, until each
// path is held by its cap or by a full link. It shares no code with the
// predictor or with netsim.Fill; walk_equiv_test.go holds the predictor
// to it.

import (
	"math"
	"slices"

	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/topo"
)

// refPath is one forwarding path of one aggregate: its share of the
// members, its per-session cap, its capacitated links and, once held,
// its rate.
type refPath struct {
	agg    int
	weight float64
	cap    float64
	links  []topo.LinkID
	rate   float64
	held   bool
}

// exactPredictPlan predicts a view set whose walk fails nowhere (the
// caller checks that against refPredictErr).
func exactPredictPlan(t *topo.Topology, views viewSet, demands []topo.Demand, m qoe.Model) qoe.PlanQoE {
	aggs := collectAggregates(demands, m)
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = qoe.DefaultHorizon
	}
	var paths []*refPath
	starved := map[int]bool{}
	for i, a := range aggs {
		v := views[a.prefix]
		if _, ok := v[a.ingress]; !ok {
			starved[i] = true // the views do not name the ingress
			continue
		}
		var walk func(u topo.NodeID, weight float64, links []topo.LinkID)
		walk = func(u topo.NodeID, weight float64, links []topo.LinkID) {
			view := v[u]
			if view.Local {
				paths = append(paths, &refPath{agg: i, weight: weight, cap: a.rate, links: slices.Clone(links)})
				return
			}
			total := float64(view.NextHops.Total())
			for nh, w := range view.NextHops {
				if w == 0 {
					continue
				}
				l, _ := t.FindLink(u, nh)
				next := links
				if l.Capacity > 0 {
					next = append(slices.Clip(links), l.ID)
				}
				walk(nh, weight*float64(w)/total, next)
			}
		}
		walk(a.ingress, a.members, nil)
	}

	// Raise the level. At each event the next level is the lowest
	// unheld cap or the lowest level at which some link fills; every
	// path that event binds is held there.
	onLink := map[topo.LinkID][]*refPath{}
	for _, p := range paths {
		for _, l := range p.links {
			onLink[l] = append(onLink[l], p)
		}
	}
	fill := func(l topo.LinkID) float64 { // the level at which l fills
		free, w := t.Link(l).Capacity, 0.0
		for _, p := range onLink[l] {
			if p.held {
				free -= p.rate * p.weight
			} else {
				w += p.weight
			}
		}
		if w == 0 {
			return math.Inf(1)
		}
		return math.Max(0, free/w)
	}
	for {
		level := math.Inf(1)
		for _, p := range paths {
			if !p.held {
				level = math.Min(level, p.cap)
			}
		}
		if math.IsInf(level, 1) {
			break // every path is held
		}
		full := map[topo.LinkID]bool{}
		for l := range onLink {
			if f := fill(l); f < level*(1-1e-12) {
				level, full = f, map[topo.LinkID]bool{l: true}
			} else if f <= level*(1+1e-12) {
				full[l] = true
			}
		}
		for _, p := range paths {
			if p.held {
				continue
			}
			if p.cap <= level*(1+1e-12) || slices.ContainsFunc(p.links, func(l topo.LinkID) bool { return full[l] }) {
				p.rate, p.held = math.Min(p.cap, level), true
			}
		}
	}

	var out qoe.PlanQoE
	predict := func(i int, weight, rate float64) {
		s := qoe.PredictSession(qoe.SessionConfig{Ladder: []float64{aggs[i].rate}}, rate, horizon)
		out.StallSeconds += weight * s.StallSeconds
		out.StartupWaitSeconds += weight * s.StartupWaitSeconds
	}
	for _, p := range paths {
		predict(p.agg, p.weight, p.rate)
	}
	for i, a := range aggs {
		if starved[i] {
			predict(i, a.members, 0)
		}
		out.Sessions += int(math.Round(a.members))
	}
	return out
}
