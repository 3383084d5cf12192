package te

import (
	"cmp"
	"fmt"
	"slices"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// LinkLoads propagates a demand set over the forwarding behaviour
// described by per-prefix route views (IGP or Fibbing-augmented) and
// returns the steady-state load on every directed link. Traffic at a
// router splits over its next hops proportionally to the ECMP weights —
// the fluid limit of per-flow hashing.
func LinkLoads(t *topo.Topology, viewsByPrefix map[string]map[topo.NodeID]fibbing.RouteView, demands []topo.Demand) (map[topo.LinkID]float64, error) {
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

// propagate pushes per-ingress volumes through the forwarding DAG in
// walk order, so a merge router sums its upstream shares in the same
// order on every call. Views are loop-free per CheckDelivery, but a
// cycle is still reported.
func propagate(t *topo.Topology, views map[topo.NodeID]fibbing.RouteView, ingress map[topo.NodeID]float64, loads map[topo.LinkID]float64) error {
	w := fibbing.NewWalk(t, views)
	vol := make([]float64, len(w.Routes))
	for u, x := range ingress {
		if uint(u) < uint(len(vol)) { // an ingress outside t carries nothing
			vol[u] = x
		}
	}
	for _, u := range w.Order {
		r := &w.Routes[u]
		if x := vol[u]; x > 0 && !r.Local {
			if r.Total == 0 {
				return fmt.Errorf("traffic stranded at %s", t.Name(u))
			}
			for _, h := range r.Hops {
				share := x * float64(h.Weight) / float64(r.Total)
				if h.Link == topo.NoLink {
					return fmt.Errorf("no link %s->%s", t.Name(u), t.Name(h.To))
				}
				loads[h.Link] += share
				vol[h.To] += share
			}
		}
	}
	if w.Cycle {
		return fmt.Errorf("forwarding graph contains a cycle")
	}
	return nil
}

// IGPLoads is a convenience: route demands over plain IGP shortest paths.
func IGPLoads(t *topo.Topology, demands []topo.Demand) (map[topo.LinkID]float64, error) {
	return LoadsWithLies(t, nil, demands)
}

// LoadsWithLies routes demands over the Fibbing-augmented network.
func LoadsWithLies(t *topo.Topology, liesByPrefix map[string][]fibbing.Lie, demands []topo.Demand) (map[topo.LinkID]float64, error) {
	views, err := DemandViews(fibbing.NewEvaluator(t), liesByPrefix, demands)
	if err != nil {
		return nil, err
	}
	return LinkLoads(t, views, demands)
}

// DemandViews compiles the believed routing of every demanded prefix
// under its lies over ev's topology: the view set LinkLoads and
// qoe.PredictPlan walk. The prefixes share ev, so a router that anchors
// lies for several of them costs one SPF tree, not one per prefix, and
// a caller that keeps ev shares the trees across calls. A prefix without
// lies gets ev's IGP view, which ev keeps and shares: the returned views
// are read-only. The first failing prefix in demand order names the
// error.
func DemandViews(ev *fibbing.Evaluator, liesByPrefix map[string][]fibbing.Lie, demands []topo.Demand) (map[string]map[topo.NodeID]fibbing.RouteView, error) {
	views := make(map[string]map[topo.NodeID]fibbing.RouteView)
	for _, d := range demands {
		if _, ok := views[d.PrefixName]; ok {
			continue
		}
		var v map[topo.NodeID]fibbing.RouteView
		var err error
		if lies := liesByPrefix[d.PrefixName]; len(lies) == 0 {
			v, err = ev.IGPView(d.PrefixName)
		} else {
			v, err = ev.Evaluate(d.PrefixName, lies)
		}
		if err != nil {
			return nil, err
		}
		views[d.PrefixName] = v
	}
	return views, nil
}

// FormatLoads renders loads as "A->B: v" lines sorted by link name,
// for experiment output. Loads below SolverRelTol of the largest load
// are propagation noise and omitted, whatever the absolute scale.
func FormatLoads(t *topo.Topology, loads map[topo.LinkID]float64) []string {
	maxLoad := 0.0
	for _, v := range loads {
		if v > maxLoad {
			maxLoad = v
		}
	}
	eps := SolverRelTol * maxLoad
	type row struct {
		name string
		v    float64
	}
	var rows []row
	for id, v := range loads {
		if v <= eps {
			continue
		}
		l := t.Link(id)
		rows = append(rows, row{fmt.Sprintf("%s->%s", t.Name(l.From), t.Name(l.To)), v})
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.name, b.name) })
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s: %g", r.name, r.v)
	}
	return out
}
