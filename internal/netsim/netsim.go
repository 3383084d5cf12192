// Package netsim is the data-plane substrate of the emulation: a
// discrete-event fluid simulator. Flows enter at ingress routers, follow
// the per-flow ECMP path selected by the routers' FIBs, and share link
// capacity max-min fairly (the fluid limit of long-lived TCP). Per-link
// octet counters feed the SNMP agents; sampled throughput series reproduce
// the paper's Figure 2.
//
// Readings are kept per change, not rebuilt per read. The sample tick
// advances every counter but appends a throughput point only to the
// links someone asked for (Series). LinkRates, MaxUtilisation and
// TotalThroughput read a per-link rate vector that the first reading
// after an aggregate's rate, weight or existence changed re-sums, in
// aggregate-id order so every float is the per-call sum's.
//
// It replaces the paper's Mininet emulation (kernel forwarding + iperf):
// link throughput over time is fully determined by routing and fair
// sharing, both modelled explicitly here.
//
// The traffic plane is aggregate-based: flows with the same ingress, rate
// cap, traced path and per-hop FIB matches collapse into one Aggregate
// carrying a member weight, so memory and fair-sharing cost scale with the
// number of distinct path-classes instead of the number of viewers.
// AddFlow/RemoveFlow/SetFlowMaxRate are O(1) joins and leaves, and the
// fluid integration (advance) walks aggregates, not flows.
//
// Both planes move by delta. Routing: ApplyDiff consumes a router's
// fib.Diff and queues only the aggregates whose per-hop matched prefixes
// the diff can have re-pathed, each with the hop the router sits at.
// Classification is per route, not per address: each router keeps one
// resolved forwarding entry (classify.go), which answers for every
// destination its matched prefix covers when no more-specific route lies
// inside it, so a hop costs a longest-prefix match only where the entry
// does not answer, and a hash only where the route has several next hops.
// The cost model of a re-route: a new flow pays one trace, O(hops); a
// delta pays, per member of a queued aggregate, one entry read per
// touched hop and no allocation, plus one full trace, a leave and a join
// per member that actually moves. SetTable (no diff to read) and a link
// failure check their members at every hop; a blocked aggregate records
// no path, so any change re-traces its members in full.
//
// Sharing: a link<->aggregate incidence index tracks which links changed
// membership; reshare walks from the dirty links to their
// bottleneck-dependency components (the connected components of the
// incidence graph), each gathered by one walk, and re-runs weighted
// max-min progressive filling only there. A member that does not move
// dirties nothing, so a SetTable that re-paths no one re-solves nothing.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/topo"
)

// FlowID identifies a flow within one Network.
type FlowID int64

// Flow is one fluid flow: the identity of a demand source plus its
// membership in the aggregate that currently carries it. Flows do not own
// rates or paths — those live on the aggregate, shared by every member.
type Flow struct {
	ID      FlowID
	Key     fib.FlowKey
	Ingress topo.NodeID
	// MaxRate caps the flow's rate in bit/s (application-limited, e.g. a
	// video stream's bitrate); 0 means greedy (TCP bulk transfer).
	MaxRate float64

	agg     *Aggregate
	slot    int     // index in agg.members
	carried float64 // bits delivered in aggregates already left
	joinRef float64 // agg.perFlowBits when this flow joined
	gone    bool    // removed while still awaiting its first trace
}

// Rate returns the currently allocated rate in bit/s.
func (f *Flow) Rate() float64 {
	if f.agg == nil {
		return 0
	}
	return f.agg.rate
}

// DeliveredBytes returns the volume delivered so far.
func (f *Flow) DeliveredBytes() float64 { return f.deliveredBits() / 8 }

func (f *Flow) deliveredBits() float64 {
	bits := f.carried
	if f.agg != nil {
		bits += f.agg.perFlowBits - f.joinRef
	}
	return bits
}

// Path returns the node path the flow currently takes (nil while blocked
// or not yet routed).
func (f *Flow) Path() []topo.NodeID {
	if f.agg == nil || f.agg.blocked {
		return nil
	}
	return f.agg.nodes
}

// Blocked reports whether the flow currently has no route.
func (f *Flow) Blocked() bool { return f.agg != nil && f.agg.blocked }

// Stats is the traffic plane's cost telemetry.
type Stats struct {
	// ReshareFull counts reshares whose walks reached every active link
	// (one carrying aggregates); ReshareIncremental counts the others.
	ReshareFull        uint64
	ReshareIncremental uint64
	// ReshareComponents counts the connected incidence components solved
	// across all reshares. Components are independent max-min problems,
	// each gathered by one walk from a dirty link and solved on its own;
	// the partition depends only on the incidence graph.
	ReshareComponents uint64
	// Aggregates and Flows are the current population sizes; their ratio
	// is the compression the aggregate plane achieves.
	Aggregates int
	Flows      int
}

// Network is the fluid data plane. It is not safe for concurrent use:
// every call, reads included, runs on the event scheduler's goroutine or
// under a lock that also stops the scheduler (cmd/fibbingd's SNMP agent
// reads counters under the daemon's pacing mutex).
type Network struct {
	topo  *topo.Topology
	sched *event.Scheduler

	// tables is the live routing state; replaced entries re-route flows.
	tables map[topo.NodeID]*fib.Table

	// fwd holds each router's resolved route (classify.go), indexed by
	// NodeID; installing a table drops the router's entry.
	fwd []fwdEntry

	// flows is indexed by FlowID: ids are dense and never reused, so a
	// finished flow leaves a nil slot; live counts the others.
	flows []*Flow
	live  int

	// Aggregate plane: aggregates indexed by class signature (chained on
	// the rare hash collision) and by id, plus the link<->aggregate
	// incidence index over capacitated links.
	aggs    map[uint64][]*Aggregate
	aggByID map[int64]*Aggregate
	nextAgg int64
	links   map[topo.LinkID]*linkState

	// pending flows await their first trace at the next recompute.
	pending []*Flow

	// invalid aggregates have their members checked at the next recompute,
	// at the hops in Aggregate.touched; invalidAll queues every aggregate
	// at every hop (SetTable).
	invalid    map[int64]*Aggregate
	invalidAll bool

	// scratch is the trace traceFlow fills, movers the members one
	// aggregate's check displaced; both are reused across recomputes.
	scratch trace
	movers  []*Flow
	byID    []*Aggregate // eachByID's sort scratch

	// dirty is the set of capacitated links whose aggregate membership
	// changed since the last reshare; each is in links. walk numbers the
	// reshares, whose walks gather their components into comp.
	dirty map[topo.LinkID]bool
	walk  uint64
	comp  component

	stats Stats

	// counters holds every link's octets forwarded (SNMP ifOutOctets),
	// indexed by LinkID.
	counters []metrics.Counter

	// Throughput series exist only for the links someone asked for
	// (Series): series is indexed by LinkID, nil until asked. A sample
	// tick appends to the links in sampled, reading lastOct, the counter
	// at the previous tick; a link asked for after the first tick waits
	// in arming for one tick that records its lastOct, so its first
	// point spans a whole interval. ticked reports that a tick has run.
	series  []*metrics.Series
	lastOct []uint64
	sampled []topo.LinkID
	arming  []topo.LinkID
	ticked  bool

	// Readings of the current allocation, kept from one change to the
	// next: linkRate is the offered rate per LinkID, summed in aggregate-id
	// order; maxUtil and total are MaxUtilisation and TotalThroughput.
	// ratesStale says some aggregate's rate, weight or existence changed
	// since they were summed: join, leave and the solvers set it, and the
	// next reading re-sums (readings).
	linkRate   []float64
	maxUtil    float64
	total      float64
	ratesStale bool

	lastUpdate time.Duration
	recompute  bool // a reroute+reshare is scheduled for this instant

	linkDown []bool // by LinkID

	sampleEvery time.Duration
}

// New builds a network over a topology. Routing tables start empty; feed
// them with ApplyDiff (e.g. from an ospf.Domain's OnFIBDelta callback) or
// SetTable.
func New(t *topo.Topology, sched *event.Scheduler, sampleEvery time.Duration) *Network {
	if sampleEvery <= 0 {
		sampleEvery = time.Second
	}
	n := &Network{
		topo:        t,
		sched:       sched,
		tables:      make(map[topo.NodeID]*fib.Table),
		aggs:        make(map[uint64][]*Aggregate),
		aggByID:     make(map[int64]*Aggregate),
		links:       make(map[topo.LinkID]*linkState),
		invalid:     make(map[int64]*Aggregate),
		dirty:       make(map[topo.LinkID]bool),
		counters:    make([]metrics.Counter, t.NumLinks()),
		series:      make([]*metrics.Series, t.NumLinks()),
		lastOct:     make([]uint64, t.NumLinks()),
		linkRate:    make([]float64, t.NumLinks()),
		fwd:         make([]fwdEntry, t.NumNodes()),
		linkDown:    make([]bool, t.NumLinks()),
		sampleEvery: sampleEvery,
	}
	sched.NewTicker(sampleEvery, n.sample)
	return n
}

// Topology returns the simulated topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// Stats returns the traffic plane's cost counters.
func (n *Network) Stats() Stats {
	s := n.stats
	s.Aggregates = len(n.aggByID)
	s.Flows = n.live
	return s
}

// SetTable installs a router's FIB and schedules a re-route of all flows
// (no diff: every member of every aggregate is checked at every hop).
// Safe to call from inside scheduler events. ApplyDiff is the cheaper
// delta-aware alternative.
func (n *Network) SetTable(node topo.NodeID, t *fib.Table) {
	n.tables[node] = t
	n.dropEntry(node)
	n.invalidAll = true
	n.scheduleRecompute()
}

// ApplyDiff installs a router's FIB that changed by the given diff and
// invalidates only the aggregates the diff can have re-pathed: those whose
// path crosses the router and whose matched prefix at that hop overlaps a
// changed prefix, plus every blocked aggregate (any change may have opened
// a path). The invalidation records the hop the router sits at, adding to
// the hops of an aggregate already queued, so the next recompute checks
// each member there and nowhere else; members that forward as before stay
// put without touching the fair-share state.
func (n *Network) ApplyDiff(node topo.NodeID, t *fib.Table, d *fib.Diff) {
	n.tables[node] = t
	n.dropEntry(node)
	for _, a := range n.aggByID {
		if hops := a.touchedBy(node, d); hops != 0 {
			n.invalidate(a, hops)
		}
	}
	queued := len(n.invalid) > 0
	if queued {
		n.scheduleRecompute()
	}
}

// invalidate queues an aggregate for the next recompute's member check at
// the given hops, on top of any it is already queued for.
func (n *Network) invalidate(a *Aggregate, hops uint64) {
	a.touched |= hops
	n.invalid[a.id] = a
}

// AddFlow injects a flow now and returns its ID: an O(1) join — the flow
// is traced and bucketed into its aggregate at the next recompute instant.
func (n *Network) AddFlow(ingress topo.NodeID, key fib.FlowKey, maxRate float64) FlowID {
	n.advance()
	id := FlowID(len(n.flows))
	f := &Flow{ID: id, Key: key, Ingress: ingress, MaxRate: maxRate}
	n.flows = append(n.flows, f)
	n.live++
	n.pending = append(n.pending, f)
	n.scheduleRecompute()
	return id
}

// SetFlowMaxRate changes a flow's application-limited rate cap (0 = greedy):
// the flow leaves its aggregate and joins the sibling with the new cap
// (same path), dirtying only the links along it. Adaptive-bitrate players
// use this when they switch rungs.
func (n *Network) SetFlowMaxRate(id FlowID, maxRate float64) {
	n.advance()
	f := n.Flow(id)
	changed := f != nil && f.MaxRate != maxRate
	if changed {
		f.MaxRate = maxRate
		if a := f.agg; a != nil {
			// The old aggregate may be queued for its member check (a diff
			// or link failure invalidated it, the recompute has not fired
			// yet). The cap-sibling inherits its trace verbatim, so it must
			// inherit the touched hops too — leave() drops the old
			// aggregate (and its queue entry) when f was the last member.
			n.leave(f)
			n.rebucket(f, &a.trace)
			if a.touched != 0 {
				n.invalidate(f.agg, a.touched)
			}
		}
	}
	if changed {
		n.scheduleRecompute()
	}
}

// RemoveFlow terminates a flow: an O(1) leave from its aggregate.
func (n *Network) RemoveFlow(id FlowID) {
	n.advance()
	f := n.Flow(id)
	if f != nil {
		n.flows[id] = nil
		n.live--
		if f.agg != nil {
			n.leave(f)
		} else {
			f.gone = true
		}
	}
	if f != nil {
		n.scheduleRecompute()
	}
}

// Flow returns a live flow (nil if finished/unknown). The returned struct
// is owned by the network; read it only from scheduler context.
func (n *Network) Flow(id FlowID) *Flow {
	if id < 0 || int(id) >= len(n.flows) {
		return nil
	}
	return n.flows[id]
}

// Delivered returns the volume (bytes) a flow has delivered so far; ok is
// false when the flow has finished. It is the one-flow form of
// DeliveredInto.
func (n *Network) Delivered(id FlowID) (bytes float64, ok bool) {
	var buf [1]float64
	out := n.DeliveredInto([]FlowID{id}, buf[:0])
	return max(out[0], 0), out[0] >= 0
}

// DeliveredInto returns out[:0] with one value appended per id: the
// volume (bytes) that flow has delivered so far, or -1 when it has
// finished. It is the accessor demand sources (video sessions) poll, so
// they never hold flow structs themselves: a whole pool reads in one
// call, into the buffer it kept from its last tick, and runs its players
// afterwards. Like Octets, it advances the fluid model first so the values
// are current.
func (n *Network) DeliveredInto(ids []FlowID, out []float64) []float64 {
	n.advance()
	out = out[:0]
	for _, id := range ids {
		if f := n.Flow(id); f != nil {
			out = append(out, f.deliveredBits()/8)
		} else {
			out = append(out, -1)
		}
	}
	return out
}

// FlowCount returns the number of live flows.
func (n *Network) FlowCount() int {
	return n.live
}

// AggregateCount returns the number of live aggregates (path-classes).
func (n *Network) AggregateCount() int {
	return len(n.aggByID)
}

// Octets returns the octet counter of a directed link (SNMP ifOutOctets of
// the transmitting interface). Advances the fluid model first so the value
// is current.
func (n *Network) Octets(link topo.LinkID) uint64 {
	n.advance()
	return n.counters[link].Value()
}

// Series returns the throughput series (byte/s) of a link, one point per
// sample interval, and starts recording it if no one has asked before: a
// link's series exists only once asked for. The series is live: it fills
// as the run goes on. Asked for before the first sample tick, it holds
// every interval from the network's creation on; asked for later, its
// first point is the interval after the next tick, so no point ever spans
// a partial interval. It is nil for a link the topology does not have.
func (n *Network) Series(link topo.LinkID) *metrics.Series {
	if link < 0 || int(link) >= len(n.series) {
		return nil
	}
	if s := n.series[link]; s != nil {
		return s
	}
	l := n.topo.Link(link)
	s := &metrics.Series{Name: fmt.Sprintf("%s-%s", n.topo.Name(l.From), n.topo.Name(l.To))}
	n.series[link] = s
	if n.ticked {
		n.arming = append(n.arming, link)
	} else {
		n.sampled = append(n.sampled, link) // lastOct 0: the counter at creation
	}
	return s
}

// SeriesBetween returns the series for the directed link a->b, asking for
// it as Series does.
func (n *Network) SeriesBetween(a, b string) (*metrics.Series, error) {
	na, ok := n.topo.NodeByName(a)
	if !ok {
		return nil, fmt.Errorf("netsim: no node %q", a)
	}
	nb, ok := n.topo.NodeByName(b)
	if !ok {
		return nil, fmt.Errorf("netsim: no node %q", b)
	}
	l, ok := n.topo.FindLink(na, nb)
	if !ok {
		return nil, fmt.Errorf("netsim: no link %s->%s", a, b)
	}
	return n.Series(l.ID), nil
}

// SetLinkState fails or heals both directions of a link in the data
// plane: aggregates whose current path crosses a failed link are blocked
// until routing steers them elsewhere (the control plane learns of the
// failure separately through its own hello timeouts). Only aggregates
// crossing the link — plus, on heal, blocked aggregates that may now have
// a path — are checked, at every hop.
func (n *Network) SetLinkState(a, b topo.NodeID, up bool) error {
	l, ok := n.topo.FindLink(a, b)
	if !ok {
		return fmt.Errorf("netsim: no link %d-%d", a, b)
	}
	n.advance()
	n.linkDown[l.ID] = !up
	if l.Reverse != topo.NoLink {
		n.linkDown[l.Reverse] = !up
	}
	for _, ag := range n.aggByID {
		if up && ag.blocked || !up && (ag.uses(l.ID) || ag.uses(l.Reverse)) {
			n.invalidate(ag, allHops)
		}
	}
	n.scheduleRecompute()
	return nil
}

// scheduleRecompute debounces rerouting/resharing to once per instant.
// Invalidations accumulate until the event fires.
func (n *Network) scheduleRecompute() {
	if n.recompute {
		return
	}
	n.recompute = true
	n.sched.At(n.sched.Now(), func() {
		n.recompute = false
		n.advance()
		n.reroute()
		n.reshare()
	})
}

// advance integrates delivered volume into counters up to the current
// time, one step per aggregate instead of per flow x per link.
func (n *Network) advance() {
	now := n.sched.Now()
	dt := now - n.lastUpdate
	if dt <= 0 {
		return
	}
	secs := dt.Seconds()
	for _, a := range n.aggByID {
		if a.rate <= 0 {
			continue
		}
		bits := a.rate * secs
		a.perFlowBits += bits
		octets := uint64(bits / 8 * float64(a.weight))
		for _, lid := range a.links {
			n.counters[lid].Add(octets)
		}
	}
	n.lastUpdate = now
}

// reroute checks the members of invalidated aggregates against the current
// tables, and buckets pending flows into their aggregates. A member is
// looked at only at its aggregate's touched hops and, when it forwards
// there as recorded, stays in place without a trace, an allocation or a
// dirtied link; the others are traced in full, leave and join, dirtying
// exactly the links of both paths. Checking is read-only and follows map
// order; moving mints aggregate ids, so movers go in FlowID order.
func (n *Network) reroute() {
	var work []*Aggregate
	if n.invalidAll {
		n.invalidAll = false
		for _, a := range n.aggByID {
			a.touched = allHops
			work = append(work, a)
		}
	} else {
		for _, a := range n.invalid {
			work = append(work, a)
		}
	}
	clear(n.invalid)
	slices.SortFunc(work, func(x, y *Aggregate) int { return cmp.Compare(x.id, y.id) })
	for _, a := range work {
		hops := a.touched
		a.touched = 0
		if a.weight == 0 {
			continue // emptied while queued
		}
		movers := n.movers[:0]
		for _, f := range a.members {
			if !n.forwardsAsRecorded(a, f, hops) {
				movers = append(movers, f)
			}
		}
		slices.SortFunc(movers, func(x, y *Flow) int { return cmp.Compare(x.ID, y.ID) })
		for _, f := range movers {
			tr := n.traceFlow(f)
			if a.sameTrace(tr) {
				continue // still blocked
			}
			n.leave(f)
			n.rebucket(f, tr)
		}
		clear(movers)
		n.movers = movers
	}
	for _, f := range n.pending {
		if f.gone {
			continue
		}
		n.rebucket(f, n.traceFlow(f))
	}
	clear(n.pending)
	n.pending = n.pending[:0]
}

// sample appends a throughput point (byte/s over the last interval) to
// the series of every link asked for, and arms the links asked for since
// the last tick. It advances the fluid model whether or not any series
// exists: counter truncation depends on the instants advance runs at.
func (n *Network) sample() {
	n.advance()
	now := n.sched.Now()
	for _, id := range n.sampled {
		cur := n.counters[id].Value()
		rate := metrics.Rate(n.lastOct[id], cur, n.sampleEvery)
		n.lastOct[id] = cur
		n.series[id].Add(now, rate)
	}
	for _, id := range n.arming {
		n.lastOct[id] = n.counters[id].Value()
	}
	n.sampled = append(n.sampled, n.arming...)
	n.arming = n.arming[:0]
	n.ticked = true
}

// readings re-sums the allocation's readings if an aggregate changed since
// the last sum: per link, the allocated rates of the aggregates crossing
// it in aggregate-id order (float addition does not associate, and the
// sums feed the byte-identical reports), their total in the same order,
// and the utilisation of the busiest capacitated link.
func (n *Network) readings() {
	if !n.ratesStale {
		return
	}
	n.ratesStale = false
	clear(n.linkRate)
	total := 0.0
	n.eachByID(func(a *Aggregate) {
		r := a.rate * float64(a.weight)
		total += r
		if a.rate <= 0 {
			return
		}
		for _, lid := range a.links {
			n.linkRate[lid] += r
		}
	})
	n.total = total
	n.maxUtil = 0
	for id, r := range n.linkRate {
		if c := n.topo.Link(topo.LinkID(id)).Capacity; c > 0 && r/c > n.maxUtil {
			n.maxUtil = r / c
		}
	}
}

// LinkRates returns the instantaneous offered rate (bit/s) per link,
// indexed by LinkID: the sum of the allocated rates of the aggregates
// crossing it, in aggregate-id order. The slice is a copy. Useful for
// assertions.
func (n *Network) LinkRates() []float64 {
	n.readings()
	return slices.Clone(n.linkRate)
}

// MaxUtilisation returns max over capacitated links of rate/capacity.
func (n *Network) MaxUtilisation() float64 {
	n.readings()
	return n.maxUtil
}

// TotalThroughput sums all flows' current rates (bit/s), in aggregate-id
// order.
func (n *Network) TotalThroughput() float64 {
	n.readings()
	return n.total
}

// eachByID calls fn on every live aggregate in id order, sorting into a
// scratch slice it empties afterwards.
func (n *Network) eachByID(fn func(*Aggregate)) {
	s := n.byID[:0]
	for _, a := range n.aggByID {
		s = append(s, a)
	}
	slices.SortFunc(s, func(x, y *Aggregate) int { return cmp.Compare(x.id, y.id) })
	for _, a := range s {
		fn(a)
	}
	clear(s)
	n.byID = s[:0]
}
