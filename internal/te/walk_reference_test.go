package te_test

// The parent walks of the forwarding graph, verbatim but for their
// names and package qualifiers: te.LinkLoads with its map-order
// propagate, qoe.PredictPlan's verdict walk (topoWalk, sortedHops and
// offerVolumes) and fibbing.CheckDelivery with its map of visit states.
// The programs now compile each view set into a fibbing.Walk;
// walk_equiv_test.go holds them to these. refPredictErr keeps only the
// verdict of the parent predictor: its values came from per-link
// water-filling, and the predictor's values are now held to the exact
// reference in maxmin_reference_test.go.

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

// refPredictErr is the parent qoe.PredictPlan's verdict: each
// aggregate's volume walked over its prefix's views.
func refPredictErr(t *topo.Topology, views map[string]map[topo.NodeID]fibbing.RouteView, demands []topo.Demand, m qoe.Model) error {
	for _, a := range collectAggregates(demands, m) {
		v, ok := views[a.prefix]
		if !ok {
			return fmt.Errorf("qoe: no route views for prefix %q", a.prefix)
		}
		if err := offerVolumes(t, v, a.ingress, a.volume); err != nil {
			return fmt.Errorf("qoe: prefix %s: %w", a.prefix, err)
		}
	}
	return nil
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
// (ECMP-weight-proportional splits).
func offerVolumes(t *topo.Topology, views map[topo.NodeID]fibbing.RouteView, ingress topo.NodeID, volume float64) error {
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
			if _, ok := t.FindLink(u, nh); !ok {
				return fmt.Errorf("no link %s->%s", t.Name(u), t.Name(nh))
			}
			vol[nh] += share
		}
		return nil
	})
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
