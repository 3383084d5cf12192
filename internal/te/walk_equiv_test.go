package te_test

import (
	"fmt"
	"maps"
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// viewSet is one candidate routing: route views per prefix.
type viewSet = map[string]map[topo.NodeID]fibbing.RouteView

// checkLoads holds te.LinkLoads to the parent's map-order walk: the same
// verdict, the same links, every load within 1e-12 relative (the parent
// sums a merge router's inputs in map order, so only its bits move) and
// bit-identical loads on a repeated call. exactErr also requires the
// same error text.
func checkLoads(t *testing.T, tp *topo.Topology, views viewSet, demands []topo.Demand, exactErr bool) {
	t.Helper()
	got, err := te.LinkLoads(tp, views, demands)
	want, werr := refLinkLoads(tp, views, demands)
	if (err == nil) != (werr == nil) || exactErr && err != nil && err.Error() != werr.Error() {
		t.Fatalf("LinkLoads error %v, reference %v", err, werr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
		t.Fatalf("LinkLoads loads links %v, reference %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12*math.Abs(w) {
			t.Fatalf("link %d: load %v, reference %v", id, got[id], w)
		}
	}
	again, err := te.LinkLoads(tp, views, demands)
	if err != nil {
		t.Fatal(err)
	}
	for id, g := range got {
		if math.Float64bits(again[id]) != math.Float64bits(g) {
			t.Fatalf("link %d: load %v on a repeated call, %v on the first", id, again[id], g)
		}
	}
}

// checkPredict holds qoe.PredictPlan's verdict to the parent's topoWalk
// pipeline (refPredictErr) and, with exactErr, its error text: the walk
// that finds a fault is the same. On success its values are held to the
// exact max-min reference (exactPredictPlan) within 1e-9 relative, the
// reference summing in another order, and to themselves bit for bit on
// a repeated call.
func checkPredict(t *testing.T, tp *topo.Topology, views viewSet, demands []topo.Demand, m qoe.Model, exactErr bool) {
	t.Helper()
	got, err := qoe.PredictPlan(tp, views, demands, m)
	werr := refPredictErr(tp, views, demands, m)
	if (err == nil) != (werr == nil) || exactErr && err != nil && err.Error() != werr.Error() {
		t.Fatalf("PredictPlan error %v, reference %v", err, werr)
	}
	if err != nil {
		return
	}
	want := exactPredictPlan(tp, views, demands, m)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if got.Sessions != want.Sessions || !near(got.StallSeconds, want.StallSeconds) ||
		!near(got.StartupWaitSeconds, want.StartupWaitSeconds) {
		t.Fatalf("PredictPlan = %+v, exact reference %+v", got, want)
	}
	if again, _ := qoe.PredictPlan(tp, views, demands, m); again != got {
		t.Fatalf("PredictPlan = %+v on a repeated call, %+v on the first", again, got)
	}
}

// checkDelivery holds fibbing.CheckDelivery to the parent's: the same
// verdict and, with exactErr, the same text. The reference walks the
// views in map order, so on a loop it may name another router of it.
func checkDelivery(t *testing.T, tp *topo.Topology, views map[topo.NodeID]fibbing.RouteView, exactErr bool) {
	t.Helper()
	err := fibbing.CheckDelivery(tp, views)
	werr := refCheckDelivery(tp, views)
	if (err == nil) != (werr == nil) {
		t.Fatalf("CheckDelivery error %v, reference %v", err, werr)
	}
	if !exactErr || err == nil {
		return
	}
	const loop = "fibbing: forwarding loop through "
	if strings.HasPrefix(err.Error(), loop) && strings.HasPrefix(werr.Error(), loop) {
		return
	}
	if err.Error() != werr.Error() {
		t.Fatalf("CheckDelivery error %v, reference %v", err, werr)
	}
}

// mergeRouters counts the routers where three or more volumes add up
// (an ingress volume and upstream shares), the sums whose bits depend on
// their order.
func mergeRouters(tp *topo.Topology, views viewSet, demands []topo.Demand) int {
	n := 0
	for _, name := range slices.Sorted(maps.Keys(views)) {
		w := fibbing.NewWalk(tp, views[name])
		inputs := make([]int, len(w.Routes))
		for _, d := range demands {
			if d.PrefixName == name && d.Volume > 0 {
				inputs[d.Ingress] = 1
			}
		}
		for _, u := range w.Order {
			if r := w.Routes[u]; inputs[u] > 0 && !r.Local {
				for _, h := range r.Hops {
					if h.Weight > 0 {
						inputs[h.To]++
					}
				}
			}
			if inputs[u] >= 3 {
				n++
			}
		}
	}
	return n
}

// zooCase is one topology of the equivalence zoo with a multi-prefix,
// multi-ingress demand set.
type zooCase struct {
	name    string
	tp      *topo.Topology
	demands []topo.Demand
	model   qoe.Model
}

func walkZoo(t *testing.T) []zooCase {
	var tps []*topo.Topology
	var names []string
	specs := append(scenarios.MatrixTopologies(), scenarios.TopoSpec{Family: "fattree", Size: 8})
	for _, ts := range specs {
		tp, _, err := ts.Build()
		if err != nil {
			t.Fatal(err)
		}
		tps, names = append(tps, tp), append(names, fmt.Sprintf("%s%d", ts.Family, ts.Size))
	}
	tps = append(tps,
		topo.RandomConnected(topo.RandomOpts{Nodes: 24, Degree: 3, MaxWeight: 4, Prefixes: 2, Seed: 11}),
		topo.Waxman(topo.WaxmanOpts{Nodes: 30, Seed: 6}))
	names = append(names, "random24", "waxman30")
	var out []zooCase
	for i, tp := range tps {
		// A second prefix at the highest-numbered router that does not
		// already attach one.
		if len(tp.Prefixes()) < 2 {
			attached := map[topo.NodeID]bool{}
			for _, p := range tp.Prefixes() {
				for _, a := range p.Attachments {
					attached[a.Node] = true
				}
			}
			at := topo.NodeID(tp.NumNodes() - 1)
			for tp.Node(at).Host || attached[at] {
				at--
			}
			tp.AddPrefix(netip.MustParsePrefix("10.250.0.0/16"), "extra", topo.Attachment{Node: at})
		}
		capacity := math.Inf(1)
		for _, l := range tp.Links() {
			if l.Capacity > 0 {
				capacity = min(capacity, l.Capacity)
			}
		}
		demands := topo.RandomDemands(tp, 14, 0.1*capacity, 0.5*capacity, int64(i+1))
		members := map[string]map[topo.NodeID]int{}
		for j, d := range demands {
			if members[d.PrefixName] == nil {
				members[d.PrefixName] = map[topo.NodeID]int{}
			}
			members[d.PrefixName][d.Ingress] = 1 + 7*j%40
		}
		out = append(out, zooCase{names[i], tp, demands, qoe.Model{Members: members}})
	}
	return out
}

// zooViewSets returns the routings a planner scores on c: the IGP's, the
// lies the min-max LP's splits compile to (lp-optimal's path,
// fibbing.Evaluator.Compile) and the lies pin-all-then-reduce compiles
// the same DAGs to.
func zooViewSets(t *testing.T, c zooCase) map[string]viewSet {
	ev := fibbing.NewEvaluator(c.tp)
	opt, err := te.SolveMinMax(c.tp, c.demands)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sets := map[string]viewSet{"igp": {}, "lp": {}, "pinned": {}}
	for _, p := range c.tp.Prefixes() {
		igp, err := ev.IGPView(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		sets["igp"][p.Name] = igp
		dag, err := fibbing.Requirement(c.tp, p.Name, opt.Splits[p.Name])
		if err != nil {
			t.Fatalf("%s: %s: %v", c.name, p.Name, err)
		}
		pinned, err := ev.AugmentPinAll(p.Name, dag)
		if err == nil {
			pinned, err = ev.ReduceLies(p.Name, pinned, dag)
		}
		if err != nil {
			t.Fatalf("%s: %s: pin all: %v", c.name, p.Name, err)
		}
		lp, _, err := ev.Compile(p.Name, dag)
		if err != nil {
			t.Fatalf("%s: %s: compile: %v", c.name, p.Name, err)
		}
		for name, aug := range map[string]*fibbing.Augmentation{"lp": lp, "pinned": pinned} {
			views, err := ev.Evaluate(p.Name, aug.Lies)
			if err != nil {
				t.Fatal(err)
			}
			sets[name][p.Name] = views
		}
	}
	return sets
}

// TestForwardingWalkMatchesReference holds the compiled walk's loads,
// QoE predictions and delivery checks to the parent walks over the
// scenario matrix's topologies, a fat-tree k=8, a random and a Waxman
// network, each with two or more prefixes and demands from many
// ingresses, under IGP routing and under the lies the LP's splits
// compile to.
func TestForwardingWalkMatchesReference(t *testing.T) {
	merges, sets := 0, 0
	for _, c := range walkZoo(t) {
		for name, views := range zooViewSets(t, c) {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				checkLoads(t, c.tp, views, c.demands, true)
				checkPredict(t, c.tp, views, c.demands, c.model, true)
				for _, p := range slices.Sorted(maps.Keys(views)) {
					checkDelivery(t, c.tp, views[p], true)
				}
			})
			merges += mergeRouters(c.tp, views, c.demands)
			sets++
		}
	}
	t.Logf("%d view sets, %d merge routers with three or more inputs", sets, merges)
	if merges == 0 {
		t.Fatalf("no router merges three volumes; the order of a sum is never exercised")
	}
}

// FuzzForwardingWalk drives the compiled walk with arbitrary view sets on
// up to 8 nodes: cycles (reached by traffic or not), hops to
// non-neighbours and to routers without a view, zero weights, hosts and
// local routers with hops. LinkLoads, PredictPlan and CheckDelivery must
// fail exactly when the parent's do, with the same text when the view
// set holds a single fault, and agree on values as in
// TestForwardingWalkMatchesReference.
func FuzzForwardingWalk(f *testing.F) {
	// Layout: nodes-2, host mask, four link-mask bytes over the node
	// pairs, capacity; per prefix (p, q) and node a flags byte, then if
	// it has a view a next-hop mask and a weight per hop; the demand
	// count-1, then ingress, volume and prefix per demand; a member count
	// per demand.
	all := []byte{0xff, 0xff, 0xff, 0xff}
	seed := func(parts ...[]byte) { f.Add(slices.Concat(parts...)) }
	// s splits 1:3:2 over a, b, c; they merge at x, which also has an
	// ingress, and forward to d; q is direct from s.
	seed([]byte{4, 0}, all, []byte{2},
		[]byte{1, 0b001110, 1, 3, 2, 1, 0b010000, 1, 1, 0b010000, 1, 1, 0b010000, 1, 1, 0b100000, 1, 3, 0},
		[]byte{1, 0b100000, 1, 0, 0, 0, 0, 3, 0},
		[]byte{2, 0, 40, 2, 4, 10, 2, 0, 20, 0, 5, 1, 3, 1})
	// A two-router loop traffic runs into.
	seed([]byte{1, 0, 0xff, 0, 0, 0, 1}, []byte{1, 0b010, 1, 1, 0b001, 1, 3, 0}, []byte{0, 0, 0}, []byte{0, 0, 9, 2, 1, 0})
	// A loop no ingress reaches beside a working path.
	seed([]byte{3, 0}, all, []byte{1},
		[]byte{1, 0b10000, 1, 1, 0b00100, 1, 1, 0b00010, 1, 0, 3, 0}, make([]byte, 5), []byte{0, 0, 9, 2, 2, 0})
	// Zero weights, a local router with a hop to a host that hops back:
	// a cycle to the walk, none to the delivery check.
	seed([]byte{4, 0b100000}, all, []byte{3},
		[]byte{1, 0b000110, 0, 2, 1, 0b001000, 0, 3, 0b100000, 1, 1, 0b000100, 1, 0, 1, 0b000001, 1},
		make([]byte, 6), []byte{1, 0, 30, 2, 3, 5, 2, 4, 0, 1})
	// A hop to a non-neighbour.
	seed([]byte{6, 0, 0x01, 0, 0, 0, 1},
		[]byte{1, 0b10, 1, 1, 0b10000000, 1, 0, 0, 0, 0, 0, 3, 0}, make([]byte, 8), []byte{0, 0, 10, 2, 1, 0})
	// A hop to a router without a view.
	seed([]byte{2, 0}, all, []byte{2}, []byte{1, 0b0010, 1, 1, 0b0100, 1, 0, 3, 0}, make([]byte, 4), []byte{0, 0, 10, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 2 + int(next()%7)
		tp := topo.New()
		hosts := next()
		for i := 0; i < n; i++ {
			if hosts>>i&1 == 1 {
				tp.AddHost(fmt.Sprintf("h%d", i))
			} else {
				tp.AddNode(fmt.Sprintf("r%d", i))
			}
		}
		links := uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24
		capacity := []float64{0, 1e6, 4e6, 20e6}[next()%4]
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if links>>(bit%32)&1 == 1 {
					tp.AddLink(topo.NodeID(i), topo.NodeID(j), 1, topo.LinkOpts{Capacity: capacity})
				}
				bit++
			}
		}
		// Per prefix and node: a flags byte (bit 0 a view, bit 1 local,
		// bit 2 unreachable), a next-hop mask and one weight per hop.
		views := viewSet{}
		faults := 0
		for _, prefix := range []string{"p", "q"} {
			v := map[topo.NodeID]fibbing.RouteView{}
			for u := 0; u < n; u++ {
				flags := next()
				if flags&1 == 0 {
					continue
				}
				rv := fibbing.RouteView{Local: flags&2 != 0, Dist: 1, NextHops: fibbing.NextHopWeights{}}
				if flags&4 != 0 {
					rv.Dist = spf.Infinity
				}
				mask := next()
				for nh := 0; nh < n; nh++ {
					if mask>>nh&1 == 1 {
						rv.NextHops[topo.NodeID(nh)] = int(next() % 4)
					}
				}
				v[topo.NodeID(u)] = rv
			}
			views[prefix] = v
			faults += viewFaults(tp, v)
		}
		exact := faults <= 1
		var demands []topo.Demand
		for k := int(next() % 4); k >= 0; k-- {
			d := topo.Demand{Ingress: topo.NodeID(int(next()) % n), PrefixName: "p", Volume: 1e5 * float64(next()%64)}
			switch next() % 8 {
			case 0:
				d.PrefixName = "q"
			case 1:
				d.PrefixName = "none" // a prefix without views
			}
			demands = append(demands, d)
		}
		m := qoe.Model{Members: map[string]map[topo.NodeID]int{}}
		for _, d := range demands {
			if m.Members[d.PrefixName] == nil {
				m.Members[d.PrefixName] = map[topo.NodeID]int{}
			}
			m.Members[d.PrefixName][d.Ingress] = int(next() % 20)
		}

		checkLoads(t, tp, views, demands, exact)
		checkPredict(t, tp, views, demands, m, exact)
		for _, p := range []string{"p", "q"} {
			checkDelivery(t, tp, views[p], viewFaults(tp, views[p]) <= 1)
		}
	})
}

// viewFaults counts what can make a walk over views fail: each hop that
// is not a link, each router the views name that is not local and has no
// weight to forward on (a next hop without a view included), and a
// forwarding cycle. With at most one, every walker must name the same
// fault whatever order it visits routers in.
func viewFaults(tp *topo.Topology, views map[topo.NodeID]fibbing.RouteView) int {
	faults := 0
	named := map[topo.NodeID]bool{}
	for u, v := range views {
		named[u] = true
		for nh := range v.NextHops {
			named[nh] = true
			if _, ok := tp.FindLink(u, nh); !ok {
				faults++
			}
		}
	}
	for u := range named {
		if v := views[u]; !v.Local && v.NextHops.Total() == 0 {
			faults++
		}
	}
	if topoWalk(views, func(topo.NodeID) error { return nil }) != nil {
		faults++
	}
	return faults
}
