package fibbing

import (
	"reflect"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// TestWalkCompilesViews pins a Walk's shape on a hand-built view set:
// the order takes the smallest ready router first (not the first one
// found ready), hops come in NodeID order with their links resolved or
// NoLink, a next hop without a view is walked with the zero route, and a
// cycle leaves its routers out of the order.
func TestWalkCompilesViews(t *testing.T) {
	tp := topo.New()
	n := make([]topo.NodeID, 7)
	for i, name := range []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6"} {
		n[i] = tp.AddNode(name)
	}
	for _, p := range [][2]int{{4, 1}, {4, 3}, {1, 2}, {3, 2}, {0, 2}, {2, 5}} {
		tp.AddLink(n[p[0]], n[p[1]], 1, topo.LinkOpts{})
	}
	views := map[topo.NodeID]RouteView{
		n[4]: {Dist: 3, NextHops: NextHopWeights{n[3]: 2, n[1]: 1}},
		n[1]: {Dist: 2, NextHops: NextHopWeights{n[2]: 1}},
		n[3]: {Dist: 2, NextHops: NextHopWeights{n[2]: 1}},
		n[0]: {Dist: 2, NextHops: NextHopWeights{n[2]: 1, n[6]: 0}}, // n6: no link, no view
		n[2]: {Dist: 1, NextHops: NextHopWeights{n[5]: 1}},
		n[5]: {Local: true, NextHops: NextHopWeights{}},
	}
	w := NewWalk(tp, views)
	// Ready at the start: n0 and n4. n0 readies n6; n4 then readies n1
	// and n3, which go before n6.
	if want := []topo.NodeID{n[0], n[4], n[1], n[3], n[2], n[5], n[6]}; !reflect.DeepEqual(w.Order, want) || w.Cycle {
		t.Fatalf("order %v (cycle %v), want %v", w.Order, w.Cycle, want)
	}
	link := func(a, b int) topo.LinkID { return tp.MustLinkBetween(tp.Name(n[a]), tp.Name(n[b])).ID }
	want := WalkRoute{Total: 3, Hops: []Hop{{To: n[1], Weight: 1, Link: link(4, 1)}, {To: n[3], Weight: 2, Link: link(4, 3)}}}
	if got := w.Routes[n[4]]; !reflect.DeepEqual(got, want) {
		t.Fatalf("n4's route %+v, want %+v", got, want)
	}
	if got := w.Routes[n[0]].Hops[1]; got != (Hop{To: n[6], Weight: 0, Link: topo.NoLink}) {
		t.Fatalf("n0's hop to n6 %+v, want no link", got)
	}
	if r := w.Routes[n[6]]; r.Local || r.Total != 0 || len(r.Hops) != 0 {
		t.Fatalf("n6 has no view but route %+v", r)
	}
	if !w.Routes[n[5]].Local {
		t.Fatalf("n5 lost its Local flag")
	}

	// n2 -> n1 closes the cycle n1 -> n2 -> n1: n1, n2 and everything
	// downstream of them never becomes ready.
	views[n[2]] = RouteView{Dist: 1, NextHops: NextHopWeights{n[5]: 1, n[1]: 1}}
	w = NewWalk(tp, views)
	if want := []topo.NodeID{n[0], n[4], n[3], n[6]}; !reflect.DeepEqual(w.Order, want) || !w.Cycle {
		t.Fatalf("order %v (cycle %v), want %v and a cycle", w.Order, w.Cycle, want)
	}
}
