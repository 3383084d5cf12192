package qoe

import (
	"fmt"
	"math"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

// Model describes the viewer population behind a demand set, so a plan's
// routing outcome can be translated into per-session experience. Each
// session plays a fixed rate equal to its aggregate's per-session share
// (volume/members): the player the scenario harness tracks.
type Model struct {
	// Members counts the sessions behind each (prefix, ingress)
	// aggregate. A missing or non-positive entry means one session (the
	// aggregate is treated as a single fat flow).
	Members map[string]map[topo.NodeID]int
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

	// Its place in the plan's sharing: its graph, the node it enters at
	// (-1: the views do not name the ingress, and it starves) and its
	// last cohort (-1: none).
	graph, node, last int32
}

// PredictPlan maps a routing outcome — topology, per-prefix route views
// (as produced by fibbing.Evaluate for a candidate lie set), demands —
// to the predicted aggregate experience of the member sessions.
//
// Each (prefix, ingress) aggregate splits its members over its prefix's
// compiled forwarding walk (fibbing.Walk, the walk te.LinkLoads pushes
// volume over) in the ECMP weight shares of every hop, and every member
// asks for the per-session rate. netsim.Fill, the data plane's own
// progressive filling, shares the capacitated links among them without
// listing their paths: while the members' rate rises in step, a link's
// rising weight is the flow into its tail times its share times the
// fraction of its head's traffic that still reaches the prefix over
// links not yet full (a forward and a backward pass per graph). The
// members that freeze at one rate form a cohort, and PredictSession
// predicts each cohort at its rate. Graph nodes come in walk order, hops
// in NodeID order and links in LinkID order, so the result is
// bit-identical regardless of map layout.
func PredictPlan(t *topo.Topology, views map[string]map[topo.NodeID]fibbing.RouteView, demands []topo.Demand, m Model) (PlanQoE, error) {
	aggs := collectAggregates(demands, m)
	if len(aggs) == 0 {
		return PlanQoE{}, nil
	}
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = DefaultHorizon
	}
	s, err := newSharing(t, views, aggs)
	if err != nil {
		return PlanQoE{}, err
	}
	netsim.Fill(s)

	var out PlanQoE
	add := func(a *aggregate, weight, rate float64) {
		p := PredictSession(SessionConfig{Ladder: []float64{a.rate}}, rate, horizon)
		out.StallSeconds += weight * p.StallSeconds
		out.StartupWaitSeconds += weight * p.StartupWaitSeconds
	}
	for _, c := range s.cohorts {
		add(&aggs[c.agg], c.weight, c.rate)
	}
	for i := range aggs {
		a := &aggs[i]
		if a.node < 0 {
			add(a, a.members, 0)
		}
		out.Sessions += int(math.Round(a.members))
	}
	return out, nil
}

// sharing is a plan's max-min problem (a netsim.Sharing): one forwarding
// graph per prefix, holding the routers its aggregates' traffic
// crosses, and the capacitated links its hops cross, in LinkID order.
// The graphs' nodes and hops share one array each.
type sharing struct {
	aggs    []aggregate
	graphs  []graph
	nodes   []node
	hops    []hop
	links   []shareLink
	cohorts []cohort
	rising  int  // aggregates that still rise
	stale   bool // the links' rising weights are out of date
	// flow and before are FreezeCapped's and FreezeLink's scratch.
	flow, before []float64
}

// graph is one prefix's forwarding graph: nodes [n0, n1) in walk order,
// their hops [h0, h1) and the prefix's aggregates [a0, a1).
type graph struct{ n0, n1, h0, h1, a0, a1 int32 }

// node is one router of a graph.
type node struct {
	h0, h1 int32 // its hops
	local  bool
	// enter is the members of the rising aggregate entering here; in is
	// the rising flow into it (members) and out the fraction of its
	// traffic that reaches the prefix over live hops.
	enter, in, out float64
}

// hop is one weighted next hop of a graph node.
type hop struct {
	graph, to int32
	link      int32 // index in sharing.links; -1: not capacitated
	full      bool  // its link froze: traffic across it no longer rises
	split     float64
	rising    float64 // rising members across it
}

// shareLink is one capacitated link of the plan.
type shareLink struct {
	capacity, held, rising float64 // held: load of frozen traffic
}

// cohort is an aggregate's members that froze at one rate.
type cohort struct {
	agg          int32
	rate, weight float64
}

// newSharing builds the plan's problem. Like te.LinkLoads, it fails
// where an aggregate's traffic meets a router with no way on or a hop
// that is not a link, and on a walk with a cycle. Aggregates come sorted
// by prefix, so each prefix's views compile once.
func newSharing(t *topo.Topology, views map[string]map[topo.NodeID]fibbing.RouteView, aggs []aggregate) (*sharing, error) {
	s := &sharing{aggs: aggs}
	// reached[u] is 1 + the last aggregate whose traffic reached u, and
	// at[u] is u's node in the graph being built.
	reached := make([]int32, t.NumNodes())
	at := make([]int32, t.NumNodes())
	for lo := 0; lo < len(aggs); {
		prefix := aggs[lo].prefix
		hi := lo + 1
		for hi < len(aggs) && aggs[hi].prefix == prefix {
			hi++
		}
		v, ok := views[prefix]
		if !ok {
			return nil, fmt.Errorf("qoe: no route views for prefix %q", prefix)
		}
		w := fibbing.NewWalk(t, v)
		for i := lo; i < hi; i++ {
			if err := reach(t, w, aggs[i].ingress, int32(i+1), reached); err != nil {
				return nil, fmt.Errorf("qoe: prefix %s: %w", prefix, err)
			}
		}
		// The graph holds the routers the prefix's traffic reaches, in
		// walk order, each with its hops of positive weight.
		gi := int32(len(s.graphs))
		g := graph{n0: int32(len(s.nodes)), h0: int32(len(s.hops)), a0: int32(lo), a1: int32(hi)}
		nhops := 0
		for _, u := range w.Order {
			if reached[u] > int32(lo) {
				at[u] = int32(len(s.nodes))
				s.nodes = append(s.nodes, node{local: w.Routes[u].Local})
				nhops += len(w.Routes[u].Hops)
			}
		}
		g.n1 = int32(len(s.nodes))
		s.hops = slices.Grow(s.hops, nhops)
		for _, u := range w.Order {
			if reached[u] <= int32(lo) {
				continue
			}
			nd := &s.nodes[at[u]]
			nd.h0 = int32(len(s.hops))
			if r := &w.Routes[u]; !r.Local {
				for _, h := range r.Hops {
					if h.Weight == 0 {
						continue
					}
					link := int32(-1)
					if t.Link(h.Link).Capacity > 0 {
						link = int32(h.Link)
					}
					s.hops = append(s.hops, hop{graph: gi, to: at[h.To], link: link,
						split: float64(h.Weight) / float64(r.Total)})
				}
			}
			nd.h1 = int32(len(s.hops))
		}
		g.h1 = int32(len(s.hops))
		// The walk passed, so an ingress with a route is in the graph, and
		// one without is a router the views do not name.
		for i := lo; i < hi; i++ {
			a := &aggs[i]
			a.graph, a.node, a.last = gi, -1, -1
			if uint(a.ingress) >= uint(len(w.Routes)) {
				continue
			}
			if r := &w.Routes[a.ingress]; r.Local || r.Total > 0 {
				a.node = at[a.ingress]
				s.nodes[a.node].enter = a.members
				s.rising++
			}
		}
		s.graphs = append(s.graphs, g)
		s.pass(&s.graphs[gi])
		lo = hi
	}

	// Number the capacitated links in LinkID order: slot[id] is 1 + the
	// link's index.
	slot := make([]int32, t.NumLinks())
	for _, h := range s.hops {
		if h.link >= 0 {
			slot[h.link] = 1
		}
	}
	for id, used := range slot {
		if used > 0 {
			s.links = append(s.links, shareLink{capacity: t.Link(topo.LinkID(id)).Capacity})
			slot[id] = int32(len(s.links))
		}
	}
	for i := range s.hops {
		if h := &s.hops[i]; h.link >= 0 {
			h.link = slot[h.link] - 1
		}
	}
	s.flow = make([]float64, len(s.nodes))
	s.stale = true
	return s, nil
}

// reach marks with stamp every router the ingress's traffic reaches on
// w, failing, like te.LinkLoads's walk, where that traffic meets a
// router with no way on or a hop that is not a link, and on a walk with
// a cycle. An ingress the views do not name reaches nothing.
func reach(t *topo.Topology, w *fibbing.Walk, ingress topo.NodeID, stamp int32, reached []int32) error {
	if uint(ingress) < uint(len(reached)) {
		reached[ingress] = stamp
	}
	for _, u := range w.Order {
		r := &w.Routes[u]
		if reached[u] != stamp || r.Local {
			continue
		}
		if r.Total == 0 {
			return fmt.Errorf("traffic stranded at %s", t.Name(u))
		}
		for _, h := range r.Hops {
			if h.Link == topo.NoLink {
				return fmt.Errorf("no link %s->%s", t.Name(u), t.Name(h.To))
			}
			if h.Weight > 0 {
				reached[h.To] = stamp
			}
		}
	}
	if w.Cycle {
		return fmt.Errorf("forwarding graph contains a cycle")
	}
	return nil
}

// pass brings graph g's flows up to date: backward, each node's out
// (1 at the prefix, else its live hops' splits times their heads' out),
// then forward, each node's in (its entering members plus what its
// predecessors pass on) and each hop's rising members (its tail's in
// times its split times its head's out).
func (s *sharing) pass(g *graph) {
	nodes := s.nodes[g.n0:g.n1]
	for k := len(nodes) - 1; k >= 0; k-- {
		nd := &nodes[k]
		if nd.local {
			nd.out = 1
			continue
		}
		out := 0.0
		for _, h := range s.hops[nd.h0:nd.h1] {
			if !h.full {
				out += h.split * s.nodes[h.to].out
			}
		}
		nd.out = out
	}
	for k := range nodes {
		nodes[k].in = nodes[k].enter
	}
	for k := range nodes {
		nd := &nodes[k]
		for i := nd.h0; i < nd.h1; i++ {
			h := &s.hops[i]
			if h.full {
				h.rising = 0
				continue
			}
			x := nd.in * h.split
			to := &s.nodes[h.to]
			to.in += x
			h.rising = x * to.out
		}
	}
}

// freeze records that weight members of aggregate i froze at rate.
func (s *sharing) freeze(i int32, rate, weight float64) {
	a := &s.aggs[i]
	if a.last >= 0 && s.cohorts[a.last].rate == rate {
		s.cohorts[a.last].weight += weight
		return
	}
	a.last = int32(len(s.cohorts))
	s.cohorts = append(s.cohorts, cohort{agg: i, rate: rate, weight: weight})
}

func (s *sharing) Links() int { return len(s.links) }

func (s *sharing) Settled() bool { return s.rising == 0 }

func (s *sharing) Headroom(k int) (remaining, rising float64) {
	if s.stale {
		for i := range s.links {
			s.links[i].rising = 0
		}
		for _, h := range s.hops {
			if h.link >= 0 {
				s.links[h.link].rising += h.rising
			}
		}
		s.stale = false
	}
	l := &s.links[k]
	return l.capacity - l.held, l.rising
}

// FreezeCapped stops the capped aggregates' members entering their
// graphs. In each graph, one forward pass pushes their load (members
// times cap) over the live hops, weighted by the fraction of each hop's
// head that reaches the prefix, and one pass of the flows follows.
func (s *sharing) FreezeCapped(share float64) bool {
	progressed := false
	for gi := range s.graphs {
		g := &s.graphs[gi]
		load := s.flow[g.n0:g.n1]
		capped := false
		for i := g.a0; i < g.a1; i++ {
			a := &s.aggs[i]
			if a.node < 0 || s.nodes[a.node].enter == 0 || a.rate > share {
				continue
			}
			if !capped {
				clear(load)
				capped = true
			}
			nd := &s.nodes[a.node]
			s.freeze(i, a.rate, nd.enter*nd.out)
			load[a.node-g.n0] = a.rate * nd.enter
			nd.enter = 0
			s.rising--
		}
		if !capped {
			continue
		}
		for k := g.n0; k < g.n1; k++ {
			x := load[k-g.n0]
			if x == 0 {
				continue
			}
			nd := &s.nodes[k]
			for _, h := range s.hops[nd.h0:nd.h1] {
				if h.full {
					continue
				}
				y := x * h.split
				load[h.to-g.n0] += y
				if h.link >= 0 {
					s.links[h.link].held += y * s.nodes[h.to].out
				}
			}
		}
		s.pass(g)
		s.stale, progressed = true, true
	}
	return progressed
}

// FreezeLink marks link k's hops full. In each graph whose rising flow
// crossed one, what no longer reaches the prefix over live hops freezes
// at share: each hop's lost rising members become held load on its
// link, and each aggregate's lost members a cohort; an aggregate none
// of whose members rises any more stops rising. A hop that no rising
// flow crossed changes only what no rising flow reaches, so its graph
// is passed again only when one did.
func (s *sharing) FreezeLink(k int, share float64) {
	for i := range s.hops {
		h := &s.hops[i]
		if h.link != int32(k) {
			continue
		}
		h.full = true
		if h.rising == 0 {
			continue
		}
		g := &s.graphs[h.graph]
		before := s.before[:0]
		for _, h := range s.hops[g.h0:g.h1] {
			before = append(before, h.rising)
		}
		for _, a := range s.aggs[g.a0:g.a1] {
			w := 0.0
			if a.node >= 0 {
				w = s.nodes[a.node].enter * s.nodes[a.node].out
			}
			before = append(before, w)
		}
		s.before = before
		s.pass(g)
		s.stale = true
		for j := g.h0; j < g.h1; j++ {
			if h := &s.hops[j]; h.link >= 0 {
				s.links[h.link].held += share * (before[j-g.h0] - h.rising)
			}
		}
		before = before[g.h1-g.h0:]
		for j := g.a0; j < g.a1; j++ {
			a := &s.aggs[j]
			if a.node < 0 || before[j-g.a0] == 0 {
				continue
			}
			nd := &s.nodes[a.node]
			after := nd.enter * nd.out
			if after < before[j-g.a0] {
				s.freeze(j, share, before[j-g.a0]-after)
			}
			if after == 0 {
				nd.enter = 0
				s.rising--
			}
		}
	}
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
