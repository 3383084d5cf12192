package fibbing

import (
	"cmp"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// Walk is a route-view set compiled for traversal: the forwarding graph
// the views induce, held in NodeID-indexed slices. Order is the
// topological order that always takes the smallest ready NodeID, and
// each route's next hops come in NodeID order with their links resolved,
// so a walker that accumulates floats adds them in the same order on
// every call, whatever the maps' layout. The load model (te.LinkLoads)
// pushes volume over one, and the QoE predictor (qoe.PredictPlan)
// shares the links among the sessions that cross one.
//
// Building a Walk never fails. A hop that is not a link, a router with
// no way on and a cycle are left in place for the walker to report when
// its traffic meets them.
type Walk struct {
	// Order lists, in walk order, the routers the views name (as a key
	// or as a next hop) whose upstream routers all come before them.
	Order []topo.NodeID
	// Cycle reports that Order misses routers the views name: they sit
	// on a forwarding cycle or downstream of one.
	Cycle bool
	// Routes is each router's compiled route, indexed by NodeID. A
	// router the views hold no route for has the zero route.
	Routes []WalkRoute
}

// WalkRoute is one router's compiled RouteView.
type WalkRoute struct {
	// Local marks the prefix's attachment router(s).
	Local bool
	// Total is the sum of the hop weights (NextHopWeights.Total).
	Total int
	// Hops are the weighted next hops in NodeID order.
	Hops []Hop
}

// Hop is one weighted next hop of a compiled route.
type Hop struct {
	To     topo.NodeID
	Weight int
	// Link is the one link from the router to To (topo.FindLink),
	// topo.NoLink when To is not a neighbour.
	Link topo.LinkID
}

// NewWalk compiles views, whose routers and next hops must be nodes of t.
func NewWalk(t *topo.Topology, views map[topo.NodeID]RouteView) *Walk {
	n := t.NumNodes()
	w := &Walk{Routes: make([]WalkRoute, n)}
	nhops := 0
	for _, v := range views {
		nhops += len(v.NextHops)
	}
	// Every route's Hops is a window of one backing array, sized up
	// front so the appends never move it.
	hops := make([]Hop, 0, nhops)
	// deg[u] is 0 for a router the views do not name, else 1 + its
	// in-degree in the forwarding graph.
	deg := make([]int32, n)
	for u, v := range views {
		r := &w.Routes[u]
		r.Local = v.Local
		deg[u] = max(deg[u], 1)
		from := len(hops)
		for nh, weight := range v.NextHops {
			link := topo.NoLink
			if l, ok := t.FindLink(u, nh); ok {
				link = l.ID
			}
			hops = append(hops, Hop{To: nh, Weight: weight, Link: link})
			r.Total += weight
			deg[nh] = max(deg[nh], 1) + 1
		}
		r.Hops = hops[from:len(hops):len(hops)]
		slices.SortFunc(r.Hops, func(a, b Hop) int { return cmp.Compare(a.To, b.To) })
	}
	named := 0
	for _, d := range deg {
		if d > 0 {
			named++
		}
	}
	// Kahn's algorithm. Order and ready each hold at most named routers,
	// so they share one allocation. ready is kept in descending NodeID
	// order: the smallest ready router is its last element.
	buf := make([]topo.NodeID, 2*named)
	w.Order = buf[:0:named]
	ready := buf[named:named]
	for u := n - 1; u >= 0; u-- {
		if deg[u] == 1 {
			ready = append(ready, topo.NodeID(u))
		}
	}
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		w.Order = append(w.Order, u)
		for _, h := range w.Routes[u].Hops {
			if deg[h.To]--; deg[h.To] == 1 {
				at, _ := slices.BinarySearchFunc(ready, h.To, func(a, b topo.NodeID) int { return cmp.Compare(b, a) })
				ready = slices.Insert(ready, at, h.To)
			}
		}
	}
	w.Cycle = len(w.Order) != named
	return w
}
