package qoe

import (
	"fmt"
	"math"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// Model describes the viewer population behind a demand set, so a plan's
// routing outcome can be translated into per-session experience.
type Model struct {
	// Members counts the sessions behind each (prefix, ingress)
	// aggregate. A missing or non-positive entry means one session (the
	// aggregate is treated as a single fat flow).
	Members map[string]map[topo.NodeID]int
	// Session is the playback model shared by all sessions. A nil Ladder
	// means each aggregate's sessions play a fixed rate equal to their
	// natural per-session rate (volume/members) — the degenerate player
	// the scenario harness tracks when ABR is off.
	Session SessionConfig
	// Horizon is the prediction window (DefaultHorizon when zero).
	Horizon time.Duration
}

// PlanQoE is the predicted aggregate experience of every member session
// under one routing outcome.
type PlanQoE struct {
	// StallSeconds is the total predicted rebuffering time across
	// sessions.
	StallSeconds float64 `json:"stall_seconds"`
	// StartupWaitSeconds is the total predicted time-to-first-frame.
	StartupWaitSeconds float64 `json:"startup_wait_seconds"`
	// Switches is the total predicted bitrate-switch count.
	Switches float64 `json:"switches"`
	// Sessions is the member session count the totals cover.
	Sessions int `json:"sessions"`
}

// Score is the figure the planner minimises: total viewer-seconds spent
// not watching. See SessionPrediction.Score.
func (q PlanQoE) Score() float64 {
	return q.StallSeconds + q.StartupWaitSeconds
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

// PredictPlan maps a routing outcome — topology, per-prefix route views
// (as produced by fibbing.Evaluate for a candidate lie set), demands —
// to the predicted aggregate experience of the member sessions.
//
// The delivered rate per session approximates the fluid data plane's
// max-min fair allocation in two passes:
//
//  1. Offered load: each aggregate's volume is pushed through its
//     forwarding DAG (ECMP-weight splits, like te.LinkLoads), recording
//     per-link per-aggregate offered volume.
//  2. Per-link water-filling: on each overloaded link, solve for the
//     fair share s with sum_i n_i*min(r_i, s) = capacity over the
//     (fractional) sessions present, giving each aggregate a survival
//     factor phi = min(1, s/r). Along a path factors combine by MIN —
//     a flow's rate is set by its tightest bottleneck, not the product
//     of independent losses — and at DAG merge points the per-path min
//     factors combine by volume-weighted mean.
//
// Each prefix's views compile once per call into a fibbing.Walk, the
// forwarding walk te.LinkLoads uses too: routers in topological order,
// smallest ready NodeID first, next hops in NodeID order. Every other
// iteration order is explicitly sorted, so the result is byte-identical
// regardless of map layout or worker width.
func PredictPlan(t *topo.Topology, views map[string]map[topo.NodeID]fibbing.RouteView, demands []topo.Demand, m Model) (PlanQoE, error) {
	aggs := collectAggregates(demands, m)
	if len(aggs) == 0 {
		return PlanQoE{}, nil
	}
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}

	// Pass 1: per-aggregate offered volume on every link. Aggregates
	// come sorted by prefix, so each prefix's views compile once.
	walks := make([]*fibbing.Walk, len(aggs))
	offers := make(map[topo.LinkID][]linkShare)
	scratch := make([]float64, 2*t.NumNodes())
	for i, a := range aggs {
		if i > 0 && a.prefix == aggs[i-1].prefix {
			walks[i] = walks[i-1]
		} else {
			v, ok := views[a.prefix]
			if !ok {
				return PlanQoE{}, fmt.Errorf("qoe: no route views for prefix %q", a.prefix)
			}
			walks[i] = fibbing.NewWalk(t, v)
		}
		if err := offerVolumes(t, walks[i], a.ingress, a.volume, i, offers, scratch); err != nil {
			return PlanQoE{}, fmt.Errorf("qoe: prefix %s: %w", a.prefix, err)
		}
	}

	// Pass 2a: water-fill each capacity-constrained link, yielding a
	// per-link per-aggregate survival factor (1 when unconstrained).
	factors := linkFactors(t, aggs, offers)

	// Pass 2b: per aggregate, bottleneck-combine the link factors along
	// its DAG to a delivered fraction, then predict the member sessions.
	var out PlanQoE
	for i, a := range aggs {
		frac := survivingFraction(walks[i], a.ingress, i, factors, scratch)
		cfg := m.Session
		if cfg.Ladder == nil {
			cfg.Ladder = []float64{a.rate}
		}
		p := PredictSession(cfg, frac*a.rate, horizon)
		out.StallSeconds += a.members * p.StallSeconds
		out.StartupWaitSeconds += a.members * p.StartupWaitSeconds
		out.Switches += a.members * p.Switches
		out.Sessions += int(math.Round(a.members))
	}
	return out, nil
}

// collectAggregates merges demands per (prefix, ingress), attaches the
// member counts and sorts the result for deterministic iteration.
func collectAggregates(demands []topo.Demand, m Model) []aggregate {
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

// offerVolumes pushes one aggregate's volume through its compiled
// forwarding DAG (ECMP-weight-proportional splits) and records the
// per-link offered volume under the aggregate's index. scratch holds at
// least one slot per router of w.
func offerVolumes(t *topo.Topology, w *fibbing.Walk, ingress topo.NodeID, volume float64, agg int, offers map[topo.LinkID][]linkShare, scratch []float64) error {
	vol := scratch[:len(w.Routes)]
	clear(vol)
	if uint(ingress) < uint(len(vol)) {
		vol[ingress] = volume
	}
	for _, u := range w.Order {
		r := &w.Routes[u]
		x := vol[u]
		if x <= 0 || r.Local {
			continue
		}
		if r.Total == 0 {
			return fmt.Errorf("traffic stranded at %s", t.Name(u))
		}
		for _, h := range r.Hops {
			share := x * float64(h.Weight) / float64(r.Total)
			if h.Link == topo.NoLink {
				return fmt.Errorf("no link %s->%s", t.Name(u), t.Name(h.To))
			}
			offers[h.Link] = append(offers[h.Link], linkShare{agg: agg, vol: share})
			vol[h.To] += share
		}
	}
	if w.Cycle {
		return fmt.Errorf("forwarding graph contains a cycle")
	}
	return nil
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
// along one aggregate's compiled forwarding DAG: traffic entering a link
// is damped to min(carried-so-far, link factor); at merge points the
// per-path minima combine by volume-weighted mean. The result is the
// fraction of a member session's rate that reaches the prefix. scratch
// holds at least two slots per router of w.
func survivingFraction(w *fibbing.Walk, ingress topo.NodeID, agg int, factors map[topo.LinkID]map[int]float64, scratch []float64) float64 {
	if w.Cycle {
		return 0 // offerVolumes already rejected this DAG
	}
	n := len(w.Routes)
	arrived, damp := scratch[:n], scratch[n:2*n] // damp: arrival-weighted mean min-factor
	clear(arrived)
	clear(damp)
	if uint(ingress) < uint(n) {
		arrived[ingress], damp[ingress] = 1, 1
	}
	delivered := 0.0
	for _, u := range w.Order {
		r := &w.Routes[u]
		a := arrived[u]
		if a <= 0 {
			continue
		}
		if r.Local {
			delivered += a * damp[u]
			continue
		}
		if r.Total == 0 {
			continue // stranded; offerVolumes already rejected this DAG
		}
		for _, h := range r.Hops {
			share := a * float64(h.Weight) / float64(r.Total)
			phi := 1.0
			if f, ok := factors[h.Link]; ok {
				if v, ok := f[agg]; ok {
					phi = v
				}
			}
			m := math.Min(damp[u], phi)
			// Volume-weighted mean of the per-path min factors at the
			// merge point: damp holds sum(a_e*m_e)/sum(a_e).
			prev := arrived[h.To]
			arrived[h.To] = prev + share
			if arrived[h.To] > 0 {
				damp[h.To] = (damp[h.To]*prev + m*share) / arrived[h.To]
			}
		}
	}
	if delivered < 0 {
		return 0
	}
	return math.Min(1, delivered)
}
