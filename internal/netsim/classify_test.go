package netsim

import (
	"math/bits"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// This file holds the per-route classifier to the per-address walk it
// replaced: after every operation of a random program — FIB diffs and
// whole-table installs, more-specific routes appearing inside a covering
// prefix, overrides that loop or dead-end, an explicit two-router loop,
// link failures, a router whose table has not arrived, SetWeight —
// traceFlow must equal referenceTrace (fib.Plane.WalkTrace) on every flow,
// and forwardsAsRecorded must equal the Select-based member check below on
// every member.

// refForwardsAsRecorded is the member check as it read before forwarding
// was resolved per route: one Table.Select per consulted hop.
func (n *Network) refForwardsAsRecorded(a *Aggregate, f *Flow, hops uint64) bool {
	if a.blocked {
		return false
	}
	last := len(a.nodes) - 1
	for ; hops != 0; hops &= hops - 1 {
		j := bits.TrailingZeros64(hops)
		if j > last {
			break
		}
		tbl := n.tables[a.nodes[j]]
		if tbl == nil {
			return false
		}
		nh, route, ok := tbl.Select(f.Key.Dst, f.Key)
		if !ok || route.Prefix != a.matched[j] || route.Local != (j == last) ||
			j < last && (nh.Node != a.nodes[j+1] || n.linkDown[a.links[j]]) {
			return false
		}
	}
	return true
}

// squareTopology is a square with one uncapacitated side, so a trace
// crosses both hop kinds: links it records as capacitated and links it
// does not.
func squareTopology() *topo.Topology {
	t := topo.New()
	a, b, c, d := t.AddNode("a"), t.AddNode("b"), t.AddNode("c"), t.AddNode("d")
	t.AddLink(a, b, 1, topo.LinkOpts{Capacity: 10e6})
	t.AddLink(b, c, 1, topo.LinkOpts{})
	t.AddLink(c, d, 1, topo.LinkOpts{Capacity: 10e6})
	t.AddLink(d, a, 3, topo.LinkOpts{Capacity: 10e6})
	return t
}

// classifyReader draws a program from bytes; past the end it reads zeros.
type classifyReader struct {
	data []byte
	pos  int
}

func (r *classifyReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

func (r *classifyReader) intn(n int) int { return int(r.byte()) % n }

// classifyCoverage counts what the comparisons saw, for non-vacuity.
type classifyCoverage struct {
	compared, delivered4, delivered6, blocked, nonLeaf, members, reweights int
}

// classifyRig is one network under a random program, with the routing
// model that feeds it.
type classifyRig struct {
	t       *testing.T
	r       *classifyReader
	tp      *topo.Topology
	routing *equivRouting
	current map[topo.NodeID]*fib.Table // what the network was given
	pending map[topo.NodeID]*fib.Table // a withheld router's tables
	net     *Network
	sched   *event.Scheduler
	now     time.Duration
	live    []FlowID
	port    uint16
	cov     *classifyCoverage
}

// install moves the network to the given tables, router by router, by
// diff or by whole table as the program says; a withheld router's table
// waits in pending.
func (g *classifyRig) install(next map[topo.NodeID]*fib.Table) {
	for n := 0; n < g.tp.NumNodes(); n++ {
		node := topo.NodeID(n)
		if _, withheld := g.pending[node]; withheld {
			g.pending[node] = next[node]
			continue
		}
		d := fib.DiffTables(node, g.current[node], next[node])
		if d.Empty() {
			continue
		}
		if g.r.byte()&1 == 0 {
			g.net.ApplyDiff(node, next[node], d)
		} else {
			g.net.SetTable(node, next[node])
		}
		g.current[node] = next[node]
	}
}

// with returns the current tables with one router's replaced.
func (g *classifyRig) with(node topo.NodeID, tbl *fib.Table) map[topo.NodeID]*fib.Table {
	out := make(map[topo.NodeID]*fib.Table, len(g.current))
	for n, t := range g.current {
		out[n] = t
	}
	out[node] = tbl
	return out
}

func (g *classifyRig) addFlow() {
	var dst netip.Addr
	switch g.r.intn(4) {
	case 0, 1: // inside the two /16s, where the more-specifics nest
		b := g.routing.dests[g.r.intn(2)].prefix.Addr().As4()
		b[2], b[3] = g.r.byte(), 1+g.r.byte()%254
		dst = netip.AddrFrom4(b)
	case 2: // the IPv6 /48 and the /56 inside it
		b := g.routing.dests[5].prefix.Addr().As16()
		b[6], b[15] = g.r.byte(), 1+g.r.byte()
		dst = netip.AddrFrom16(b)
	default: // no route anywhere
		dst = netip.AddrFrom4([4]byte{10, 70, 0, 1 + g.r.byte()%254})
	}
	g.port++
	k := fib.FlowKey{Src: mustAddr("10.0.0.1"), Dst: dst, SrcPort: g.port, DstPort: uint16(g.r.byte()), Proto: 6}
	ingress := topo.NodeID(g.r.intn(g.tp.NumNodes()))
	g.live = append(g.live, g.net.AddFlow(ingress, k, []float64{0, 2e5}[g.r.intn(2)]))
}

// step applies one operation.
func (g *classifyRig) step() {
	tp, r, routing := g.tp, g.r, g.routing
	node := func() topo.NodeID { return topo.NodeID(r.intn(tp.NumNodes())) }
	switch op := r.intn(10); op {
	case 0: // reweight a link in the routing model: a spread of diffs
		lid := topo.LinkID(r.intn(tp.NumLinks()))
		routing.weights[lid] = 1 + int64(r.intn(6))
		g.install(routing.tables(g.t))
	case 1: // a more-specific appears or goes inside a covering prefix
		d := &routing.dests[2+r.intn(len(routing.dests)-2)]
		d.on = !d.on
		g.install(routing.tables(g.t))
	case 2: // one router's route overridden: random next hops, or none
		at := node()
		cur := g.current[at]
		if cur == nil {
			return
		}
		d := routing.dests[r.intn(len(routing.dests))]
		next := cur.Clone()
		out := tp.OutLinks(at)
		if r.intn(4) == 0 || len(out) == 0 {
			next.Remove(d.prefix)
		} else {
			route := fib.Route{Prefix: d.prefix, Distance: 99}
			for _, lid := range out {
				if r.byte()&1 == 0 {
					route.NextHops = append(route.NextHops, fib.NextHop{Node: tp.Link(lid).To, Link: lid, Weight: 1 + r.intn(3)})
				}
			}
			if len(route.NextHops) == 0 {
				route.NextHops = []fib.NextHop{{Node: tp.Link(out[0]).To, Link: out[0], Weight: 1}}
			}
			if err := next.Install(route); err != nil {
				g.t.Fatal(err)
			}
		}
		g.install(g.with(at, next))
	case 3: // a two-router loop on one destination
		l := tp.Link(topo.LinkID(r.intn(tp.NumLinks())))
		if g.current[l.From] == nil || g.current[l.To] == nil {
			return
		}
		p := routing.dests[r.intn(len(routing.dests))].prefix
		tables := g.with(l.From, g.current[l.From].Clone())
		tables[l.To] = g.current[l.To].Clone()
		for _, e := range []struct {
			at, via topo.NodeID
			link    topo.LinkID
		}{{l.From, l.To, l.ID}, {l.To, l.From, l.Reverse}} {
			if err := tables[e.at].Install(fib.Route{Prefix: p, NextHops: []fib.NextHop{{Node: e.via, Link: e.link, Weight: 1}}}); err != nil {
				g.t.Fatal(err)
			}
		}
		g.install(tables)
	case 4: // a data-plane link failure or heal
		l := tp.Link(topo.LinkID(r.intn(tp.NumLinks())))
		if err := g.net.SetLinkState(l.From, l.To, r.byte()&1 == 0); err != nil {
			g.t.Fatal(err)
		}
	case 5: // SetWeight on the simulated topology: every hop keeps its link
		l := tp.Link(topo.LinkID(r.intn(tp.NumLinks())))
		if w := 1 + int64(r.intn(4)); w != l.Weight {
			tp.SetWeight(l.ID, w)
			g.cov.reweights++
		}
	case 6: // the withheld router's tables arrive
		for at, tbl := range g.pending {
			delete(g.pending, at)
			g.install(g.with(at, tbl))
		}
	case 7:
		for i := 1 + r.intn(8); i > 0; i-- {
			g.addFlow()
		}
	case 8:
		for i := 1 + r.intn(4); i > 0 && len(g.live) > 1; i-- {
			j := r.intn(len(g.live))
			g.net.RemoveFlow(g.live[j])
			g.live = slices.Delete(g.live, j, j+1)
		}
	default: // let the recompute run
		g.now += 10 * time.Millisecond
		g.sched.RunUntil(g.now)
		if err := g.net.VerifyMaxMin(1e-9); err != nil {
			g.t.Fatalf("after op %d: %v", op, err)
		}
	}
}

// compare holds every live flow's resolved trace to the reference walk,
// and every member check to the Select-based one.
func (g *classifyRig) compare(step int) {
	t, n := g.t, g.net
	for _, id := range g.live {
		f := n.Flow(id)
		got := n.traceFlow(f).clone()
		want := n.referenceTrace(f)
		if got.blocked != want.blocked || !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.matched, want.matched) ||
			!slices.Equal(got.links, want.links) || !slices.Equal(got.capLinks, want.capLinks) {
			t.Fatalf("step %d flow %d (%v from %d): resolved trace blocked=%v nodes=%v matched=%v links=%v capLinks=%v;\n"+
				"reference blocked=%v nodes=%v matched=%v links=%v capLinks=%v",
				step, id, f.Key.Dst, f.Ingress, got.blocked, got.nodes, got.matched, got.links, got.capLinks,
				want.blocked, want.nodes, want.matched, want.links, want.capLinks)
		}
		g.cov.compared++
		switch {
		case got.blocked:
			g.cov.blocked++
		case f.Key.Dst.Is4():
			g.cov.delivered4++
		default:
			g.cov.delivered6++
		}
	}
	for _, e := range n.fwd {
		if e.table != nil && !e.leaf {
			g.cov.nonLeaf++
		}
	}
	hops := []uint64{allHops, 1, 1 << 1, 1<<2 | 1}
	n.eachByID(func(a *Aggregate) {
		for _, f := range a.members {
			for _, h := range hops {
				if got, want := n.forwardsAsRecorded(a, f, h), n.refForwardsAsRecorded(a, f, h); got != want {
					t.Fatalf("step %d flow %d at hops %#x: member check %v, Select-based check %v", step, f.ID, h, got, want)
				}
			}
			g.cov.members++
		}
	})
}

// runClassify plays one program: a topology (the zoo of the twin test or
// the square), a routing model with IPv4 and IPv6
// destinations and more-specifics nested inside them, one router's tables
// withheld until the program releases them, a first crowd of flows, then
// operations, each followed by the comparison.
func runClassify(t *testing.T, data []byte, cov *classifyCoverage) {
	r := &classifyReader{data: data}
	g := newClassifyRig(t, r, cov)
	for step := 0; r.pos < len(r.data); step++ {
		g.step()
		g.compare(step)
	}
}

// newClassifyRig draws a rig's setup from the program: the topology, the
// routing model, the withheld router, the installed tables and the first
// crowd of flows.
func newClassifyRig(t *testing.T, r *classifyReader, cov *classifyCoverage) *classifyRig {
	var tp *topo.Topology
	if zoo := r.intn(7); zoo == 6 {
		tp = squareTopology()
	} else {
		tp, _ = equivTopology(zoo + 6*r.intn(4))
	}
	routing := &equivRouting{tp: tp, weights: make([]int64, tp.NumLinks())}
	for _, l := range tp.Links() {
		routing.weights[l.ID] = l.Weight
	}
	node := func() topo.NodeID { return topo.NodeID(r.intn(tp.NumNodes())) }
	routing.dests = []equivDest{
		{prefix: mustPfx("10.50.0.0/16"), at: node(), on: true},
		{prefix: mustPfx("10.60.0.0/16"), at: node(), on: true},
		{prefix: mustPfx("10.50.128.0/17"), at: node(), on: true},
		{prefix: mustPfx("10.50.64.0/20"), at: node()},
		{prefix: mustPfx("10.60.7.0/24"), at: node(), on: true},
		{prefix: mustPfx("2001:db8:50::/48"), at: node(), on: true},
		{prefix: mustPfx("2001:db8:50:80::/57"), at: node(), on: true},
	}
	sched := event.NewScheduler()
	g := &classifyRig{
		t: t, r: r, tp: tp, routing: routing,
		current: make(map[topo.NodeID]*fib.Table),
		pending: map[topo.NodeID]*fib.Table{node(): nil},
		net:     New(tp, sched, time.Second), sched: sched, cov: cov,
	}
	g.install(routing.tables(t))
	for i := 0; i < 40; i++ {
		g.addFlow()
	}
	return g
}

// TestResolvedTraceMatchesWalkTrace runs random programs over the zoo.
func TestResolvedTraceMatchesWalkTrace(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	cov := &classifyCoverage{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0] = byte(seed) // every topology, in turn
		runClassify(t, data, cov)
	}
	// Non-vacuity: delivered flows of both families, blocked ones, routers
	// holding a covering (non-leaf) route, members checked, and weight
	// changes.
	if cov.delivered4 == 0 || cov.delivered6 == 0 || cov.blocked == 0 || cov.nonLeaf == 0 || cov.members == 0 || cov.reweights == 0 {
		t.Fatalf("vacuous run: %+v", *cov)
	}
	t.Logf("%+v", *cov)
}

// FuzzResolvedTrace runs arbitrary programs through runClassify.
func FuzzResolvedTrace(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 3, 0, 1, 5, 0, 9, 5, 1, 9, 3, 2, 1, 9, 4, 3, 0, 9, 6, 9})
	f.Add([]byte{2, 1, 7, 4, 1, 1, 2, 3, 9, 1, 5, 9, 3, 4, 4, 9, 2, 8, 1, 9})
	f.Add([]byte{13, 3, 5, 0, 2, 6, 7, 9, 0, 1, 9, 5, 2, 9, 4, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		runClassify(t, data, &classifyCoverage{})
	})
}
