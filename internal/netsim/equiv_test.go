package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// This file is the zoo-wide equivalence property of the touched-hop
// re-route: a Network fed FIB deltas through ApplyDiff (members checked at
// the touched hops only) must classify and rate every flow exactly like a
// twin fed the same tables through SetTable (every member checked at
// every hop), whatever the sequence of deltas, link flaps, cap changes,
// joins and leaves between two recomputes.

// equivTopology builds the zoo member for one sequence: the six families
// the scenario matrix and the IGP equivalence tests use.
func equivTopology(i int) (*topo.Topology, string) {
	switch i % 6 {
	case 0:
		return topo.Fig1(topo.Fig1Opts{LinkCapacity: 10e6}), "fig1"
	case 1:
		return topo.Abilene(10e6, 0), "abilene"
	case 2:
		return topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: int64(i)}), "fattree4"
	case 3:
		return topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6, Chords: 2, Seed: int64(i)}), "ring9"
	case 4:
		return topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: 10e6, MaxWeight: 5, Seed: int64(i)}), "waxman16"
	default:
		return topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: int64(i),
		}), "random12"
	}
}

// equivDest is one announced destination of the test's routing model.
type equivDest struct {
	prefix netip.Prefix
	at     topo.NodeID
	offset int64 // added to every route's Distance: a distance-only knob
	on     bool
}

// equivRouting is a small link-state model the test owns: link weights
// and destinations in, one shortest-path ECMP table per node out. Deltas
// are whatever fib.DiffTables finds between two builds.
type equivRouting struct {
	tp      *topo.Topology
	weights []int64 // by LinkID
	dests   []equivDest
}

// distancesTo is every node's distance to dst under the model's weights:
// one Dijkstra from dst over the transposed graph.
func (r *equivRouting) distancesTo(dst topo.NodeID) []int64 {
	g := spf.NewGraph(r.tp.NumNodes())
	for _, l := range r.tp.Links() {
		g.AddEdge(l.To, spf.Edge{To: l.From, Weight: r.weights[l.ID], Link: l.ID})
	}
	return spf.Compute(g, dst, nil).Dist
}

func (r *equivRouting) tables(t *testing.T) map[topo.NodeID]*fib.Table {
	t.Helper()
	out := make(map[topo.NodeID]*fib.Table, r.tp.NumNodes())
	for n := 0; n < r.tp.NumNodes(); n++ {
		out[topo.NodeID(n)] = fib.NewTable(topo.NodeID(n))
	}
	for _, d := range r.dests {
		if !d.on {
			continue
		}
		dist := r.distancesTo(d.at)
		for n := 0; n < r.tp.NumNodes(); n++ {
			node := topo.NodeID(n)
			route := fib.Route{Prefix: d.prefix, Distance: d.offset}
			switch {
			case node == d.at:
				route.Local = true
			case dist[n] == spf.Infinity:
				continue
			default:
				route.Distance += dist[n]
				for _, lid := range r.tp.OutLinks(node) {
					l := r.tp.Link(lid)
					if dist[l.To] != spf.Infinity && r.weights[lid]+dist[l.To] == dist[n] {
						route.NextHops = append(route.NextHops, fib.NextHop{Node: l.To, Link: lid, Weight: 1})
					}
				}
			}
			if err := out[node].Install(route); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// equivTwins is the pair under comparison plus the model feeding them.
type equivTwins struct {
	t        *testing.T
	label    string
	rng      *rand.Rand
	routing  *equivRouting
	current  map[topo.NodeID]*fib.Table
	delta    *Network // fed through ApplyDiff
	full     *Network // fed through SetTable
	schedD   *event.Scheduler
	schedF   *event.Scheduler
	now      time.Duration
	live     []FlowID
	nextPort uint16
}

// install moves both networks to the given tables: the delta side by the
// per-router diff against what it has, the twin by whole tables.
func (w *equivTwins) install(next map[topo.NodeID]*fib.Table) {
	for n := 0; n < w.routing.tp.NumNodes(); n++ {
		node := topo.NodeID(n)
		d := fib.DiffTables(node, w.current[node], next[node])
		if d.Empty() {
			continue
		}
		w.delta.ApplyDiff(node, next[node], d)
		w.full.SetTable(node, next[node])
		w.current[node] = next[node]
	}
}

// override rewrites one router's route for one live destination on top of
// the model: a random weighted subset of its neighbours (which may loop or
// dead-end — blocked flows are part of the property) or no route at all.
// The next model rebuild undoes it.
func (w *equivTwins) override() {
	tp, rng := w.routing.tp, w.rng
	node := topo.NodeID(rng.Intn(tp.NumNodes()))
	d := w.routing.dests[rng.Intn(len(w.routing.dests))]
	next := w.current[node].Clone()
	out := tp.OutLinks(node)
	if rng.Intn(4) == 0 || len(out) == 0 {
		next.Remove(d.prefix)
	} else {
		route := fib.Route{Prefix: d.prefix, Distance: 99}
		for _, lid := range out {
			if rng.Intn(2) == 0 {
				route.NextHops = append(route.NextHops, fib.NextHop{Node: tp.Link(lid).To, Link: lid, Weight: 1 + rng.Intn(3)})
			}
		}
		if len(route.NextHops) == 0 {
			route.NextHops = []fib.NextHop{{Node: tp.Link(out[0]).To, Link: out[0], Weight: 1}}
		}
		if err := next.Install(route); err != nil {
			w.t.Fatal(err)
		}
	}
	tables := make(map[topo.NodeID]*fib.Table, len(w.current))
	for n, tbl := range w.current {
		tables[n] = tbl
	}
	tables[node] = next
	w.install(tables)
}

func (w *equivTwins) addFlow() FlowID {
	tp, rng := w.routing.tp, w.rng
	base := w.routing.dests[rng.Intn(2)].prefix.Addr().As4() // the two /16s; more-specifics nest inside
	base[2], base[3] = byte(rng.Intn(256)), byte(1+rng.Intn(254))
	w.nextPort++
	k := fib.FlowKey{Src: mustAddr("10.0.0.1"), Dst: netip.AddrFrom4(base), SrcPort: w.nextPort, DstPort: 5000, Proto: 6}
	ingress := topo.NodeID(rng.Intn(tp.NumNodes()))
	maxRate := []float64{0, 2e5, 5e5}[rng.Intn(3)]
	id := w.delta.AddFlow(ingress, k, maxRate)
	if twin := w.full.AddFlow(ingress, k, maxRate); twin != id {
		w.t.Fatalf("%s: twin flow ids diverge: %d vs %d", w.label, id, twin)
	}
	return id
}

// mutate applies one random operation to both networks at the current
// instant, before its recompute.
func (w *equivTwins) mutate() {
	tp, rng, r := w.routing.tp, w.rng, w.routing
	switch op := rng.Intn(12); {
	case op < 3: // reweight one link: several routers' diffs in one instant
		lid := topo.LinkID(rng.Intn(tp.NumLinks()))
		nw := 1 + rng.Int63n(6)
		r.weights[lid] = nw
		if rev := tp.Link(lid).Reverse; rev != topo.NoLink {
			r.weights[rev] = nw
		}
		w.install(r.tables(w.t))
	case op == 3: // distance-only: every on-path router is touched, nobody moves
		r.dests[rng.Intn(len(r.dests))].offset++
		w.install(r.tables(w.t))
	case op < 6: // a more-specific prefix appears or disappears
		d := &r.dests[2+rng.Intn(len(r.dests)-2)]
		d.on = !d.on
		w.install(r.tables(w.t))
	case op < 8:
		w.override()
	case op == 8: // data-plane link flap, unknown to routing
		l := tp.Link(topo.LinkID(rng.Intn(tp.NumLinks())))
		up := rng.Intn(2) == 0
		if err := w.delta.SetLinkState(l.From, l.To, up); err != nil {
			w.t.Fatal(err)
		}
		if err := w.full.SetLinkState(l.From, l.To, up); err != nil {
			w.t.Fatal(err)
		}
	case op == 9: // cap changes, possibly between a diff and its recompute
		for i := 0; i < 20 && len(w.live) > 0; i++ {
			id := w.live[rng.Intn(len(w.live))]
			maxRate := []float64{0, 2e5, 5e5, 1e6}[rng.Intn(4)]
			w.delta.SetFlowMaxRate(id, maxRate)
			w.full.SetFlowMaxRate(id, maxRate)
		}
	case op == 10: // joins, some leaving again before their first trace
		for i := 0; i < 30; i++ {
			id := w.addFlow()
			if rng.Intn(4) == 0 {
				w.delta.RemoveFlow(id)
				w.full.RemoveFlow(id)
				continue
			}
			w.live = append(w.live, id)
		}
	default: // leaves
		for i := 0; i < 20 && len(w.live) > 1; i++ {
			j := rng.Intn(len(w.live))
			w.delta.RemoveFlow(w.live[j])
			w.full.RemoveFlow(w.live[j])
			w.live = slices.Delete(w.live, j, j+1)
		}
	}
}

func (w *equivTwins) compare(step int) {
	t := w.t
	t.Helper()
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	if a, b := w.delta.AggregateCount(), w.full.AggregateCount(); a != b {
		t.Fatalf("%s step %d: %d aggregates, twin has %d", w.label, step, a, b)
	}
	if a, b := w.delta.FlowCount(), w.full.FlowCount(); a != b || a != len(w.live) {
		t.Fatalf("%s step %d: %d flows, twin has %d, test holds %d", w.label, step, a, b, len(w.live))
	}
	for _, id := range w.live {
		fd, ff := w.delta.Flow(id), w.full.Flow(id)
		if fd.Blocked() != ff.Blocked() || !slices.Equal(fd.Path(), ff.Path()) {
			t.Fatalf("%s step %d flow %d (%v from %d): path %v blocked=%v, twin path %v blocked=%v",
				w.label, step, id, fd.Key.Dst, fd.Ingress, fd.Path(), fd.Blocked(), ff.Path(), ff.Blocked())
		}
		if !close(fd.Rate(), ff.Rate()) {
			t.Fatalf("%s step %d flow %d: rate %v, twin %v", w.label, step, id, fd.Rate(), ff.Rate())
		}
		if !close(fd.DeliveredBytes(), ff.DeliveredBytes()) {
			t.Fatalf("%s step %d flow %d: delivered %v, twin %v", w.label, step, id, fd.DeliveredBytes(), ff.DeliveredBytes())
		}
	}
}

func TestTouchedHopRerouteMatchesSetTableTwin(t *testing.T) {
	sequences, steps, flows := 12, 40, 2000
	if testing.Short() {
		sequences, flows = 6, 600
	}
	moved := 0
	for seq := 0; seq < sequences; seq++ {
		tp, family := equivTopology(seq)
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		routing := &equivRouting{tp: tp, weights: make([]int64, tp.NumLinks())}
		for _, l := range tp.Links() {
			routing.weights[l.ID] = l.Weight
		}
		node := func() topo.NodeID { return topo.NodeID(rng.Intn(tp.NumNodes())) }
		routing.dests = []equivDest{
			{prefix: mustPfx("10.50.0.0/16"), at: node(), on: true},
			{prefix: mustPfx("10.60.0.0/16"), at: node(), on: true},
			{prefix: mustPfx("10.50.128.0/17"), at: node()},
			{prefix: mustPfx("10.50.64.0/20"), at: node()},
			{prefix: mustPfx("10.60.7.0/24"), at: node(), on: true},
		}
		w := &equivTwins{
			t: t, label: fmt.Sprintf("seq %d (%s)", seq, family), rng: rng, routing: routing,
			current: make(map[topo.NodeID]*fib.Table),
			schedD:  event.NewScheduler(), schedF: event.NewScheduler(),
		}
		w.delta = New(tp, w.schedD, time.Second)
		w.full = New(tp, w.schedF, time.Second)
		w.install(routing.tables(t))
		for i := 0; i < flows; i++ {
			w.live = append(w.live, w.addFlow())
		}
		for step := 0; step < steps; step++ {
			w.now += 50 * time.Millisecond
			w.schedD.RunUntil(w.now)
			w.schedF.RunUntil(w.now)
			before := make(map[FlowID]*Aggregate, len(w.live))
			for _, id := range w.live {
				before[id] = w.delta.Flow(id).agg
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				w.mutate()
			}
			w.now += 50 * time.Millisecond
			w.schedD.RunUntil(w.now)
			w.schedF.RunUntil(w.now)
			w.compare(step)
			// The twin shares the member check itself; the from-scratch
			// oracle re-traces every flow, so a check that wrongly lets a
			// member stay fails here.
			if err := w.delta.VerifyMaxMin(1e-9); err != nil {
				t.Fatalf("%s step %d: %v", w.label, step, err)
			}
			for _, id := range w.live {
				if a, ok := before[id]; ok && a != nil && w.delta.Flow(id).agg != a {
					moved++
				}
			}
		}
	}
	// Non-vacuity: the sequences must actually move members between
	// aggregates, or the twins agree about nothing.
	if moved < sequences*steps {
		t.Fatalf("only %d member moves across %d sequences: the property is vacuous", moved, sequences)
	}
}
