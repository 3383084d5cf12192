package ospf

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// Domain is one IGP flooding domain: all routers of a topology, their
// adjacencies, and the virtual-time transport connecting them.
type Domain struct {
	topo  *topo.Topology
	sched *event.Scheduler

	routers map[topo.NodeID]*Router

	// linkDown marks administratively failed links, indexed by LinkID
	// (both directions are marked individually so asymmetric failures are
	// expressible).
	linkDown []bool

	inflight   int // undelivered or in-processing protocol messages
	spfPending int

	// LossRate drops protocol packets at random (deterministic rng) to
	// exercise the retransmission machinery. Hellos are never dropped so
	// adjacencies stay up. Start sends nothing, so the rate only touches
	// the floods after it: lies, weight changes, failures and resyncs.
	LossRate float64
	lossRng  *rand.Rand

	// OnFIBDelta, when set, is invoked whenever a router installs a new
	// FIB, with the diff that produced it, so subscribers can re-path only
	// the flows whose destinations changed (netsim.Network.ApplyDiff).
	// Routers only emit non-empty diffs: a recomputation that reproduces
	// the same routes is silent.
	OnFIBDelta func(n topo.NodeID, t *fib.Table, d *fib.Diff)

	// OnAdjacencyChange, when set, is invoked when a router declares a
	// neighbor dead (after the dead interval) or re-forms a previously
	// dead adjacency. The link is directed detector -> neighbor; a
	// symmetric failure fires once per endpoint. This is the IGP-visible
	// topology feed a fibbing controller gets for free by participating
	// in flooding — failure news at dead-interval timescale (the
	// internal/bfd liveness engine is the fast alternative).
	OnAdjacencyChange func(l topo.Link, up bool)

	// Errors collects protocol-level errors (bad packets, invalid lies).
	Errors []error

	// bufPool recycles packet buffers: a delivered packet's bytes are dead
	// once HandlePacket returns — it reads headers and acks in place and
	// keeps nothing but the LSAs it installs, which materialiseLSA copies
	// out field by field — so flooding stops churning the allocator. The
	// pool is touched only from scheduler events — never from SPF compute
	// phases — so no locking is needed. A buffer the pool cannot supply is
	// carved from bufSlab, bufSize bytes of capacity each: the domain's
	// largest packet, so no buffer regrows whatever it carries next.
	bufPool  [][]byte
	bufSlab  []byte
	bufSize  int
	bufChunk int // buffers per slab chunk: one per adjacency

	// lsaScratch holds the wire form of the LSA being sent, so one flood
	// encodes and checksums its instance once however many neighbors get
	// a copy. Sends never nest, so one buffer serves the whole domain.
	lsaScratch []byte

	// spfScratch is the working memory of every router's SPF run. Runs
	// never nest, so one scratch serves the whole domain.
	spfScratch spf.Scratch

	defaultDelay time.Duration
}

// getBuf returns an empty slice to build a packet of the given size in:
// a recycled buffer when the pool has one, else the next bufSize bytes of
// the slab, which is refilled with a chunk of bufChunk buffers when
// empty. Every packet the domain builds fits in bufSize; a larger one
// gets an exact allocation of its own.
func (d *Domain) getBuf(size int) []byte {
	if size > d.bufSize {
		return make([]byte, 0, size)
	}
	if n := len(d.bufPool); n > 0 {
		b := d.bufPool[n-1]
		d.bufPool[n-1] = nil
		d.bufPool = d.bufPool[:n-1]
		return b[:0]
	}
	if len(d.bufSlab) == 0 {
		d.bufSlab = make([]byte, d.bufChunk*d.bufSize)
	}
	b := d.bufSlab[:0:d.bufSize]
	d.bufSlab = d.bufSlab[d.bufSize:]
	return b
}

func (d *Domain) putBuf(b []byte) {
	if cap(b) > 0 {
		d.bufPool = append(d.bufPool, b)
	}
}

// encodeLSA returns l's wire form in the domain's scratch buffer, valid
// until the next call.
func (d *Domain) encodeLSA(l *LSA) []byte {
	d.lsaScratch = l.AppendEncode(d.lsaScratch[:0])
	return d.lsaScratch
}

// The first buffers of an adjacency's rings, carved from the domain's
// slabs; a ring that outgrows its buffer doubles as before. A commit
// floods each of its LSAs as an update of its own, so a ring peaks at
// about the largest commit's LSA count: 14-16 on most adjacencies of the
// loop-matrix cells, 61 on the busiest. Rings that started at 4 grew
// twice on most of them.
const (
	wireFirst = 16
	rxmtFirst = 16
)

// NewDomain builds the IGP domain for a topology: one router per non-host
// node and one adjacency per directed link between routers. It does not
// start the protocol; call Start. The Config is ignored (see Config).
//
// The domain owns its routers' and adjacencies' memory, sized here from
// the topology: the routers are one slab, the adjacencies another, and so
// are their rings' first buffers and the routers' neighbor lists (each a
// run of one slab of pointers, sorted by router, then neighbor). The
// packet buffers are carved from chunks of one buffer per adjacency, as
// many as one hello round has in flight, each sized for the largest
// packet the domain builds.
func NewDomain(t *topo.Topology, sched *event.Scheduler, _ Config) *Domain {
	d := &Domain{
		topo:         t,
		sched:        sched,
		linkDown:     make([]bool, t.NumLinks()),
		defaultDelay: time.Millisecond,
	}
	nr, na := 0, 0
	for _, n := range t.Nodes() {
		if !n.Host {
			nr++
		}
	}
	for _, l := range t.Links() {
		if !t.Node(l.From).Host && !t.Node(l.To).Host {
			na++ // host access links carry no IGP
		}
	}
	d.routers = make(map[topo.NodeID]*Router, nr)
	routers := make([]Router, 0, nr)
	for _, n := range t.Nodes() {
		if n.Host {
			continue
		}
		routers = append(routers, Router{})
		r := &routers[len(routers)-1]
		initRouter(r, d, n.ID)
		d.routers[n.ID] = r
	}
	nbrs := make([]neighbor, na)
	lists := make([]*neighbor, 0, na)
	wire := make([][]byte, wireFirst*na)
	rxmt := make([]rxmtEntry, rxmtFirst*na)
	for _, l := range t.Links() {
		r, peer := d.routers[l.From], d.routers[l.To]
		if r == nil || peer == nil {
			continue
		}
		i := len(lists)
		n := &nbrs[i]
		*n = neighbor{id: NodeRouterID(l.To), link: l, up: true, self: r, peer: peer}
		n.wire.Init(wire[wireFirst*i : wireFirst*(i+1) : wireFirst*(i+1)])
		n.rxmt.Init(rxmt[rxmtFirst*i : rxmtFirst*(i+1) : rxmtFirst*(i+1)])
		lists = append(lists, n)
	}
	slices.SortFunc(lists, func(a, b *neighbor) int {
		return cmp.Or(cmp.Compare(a.self.node, b.self.node), cmp.Compare(a.id, b.id))
	})
	maxLinks := 0
	for i := 0; i < len(lists); {
		r, j := lists[i].self, i+1
		for j < len(lists) && lists[j].self == r {
			j++
		}
		r.nbrList = lists[i:j:j]
		maxLinks = max(maxLinks, j-i)
		i = j
	}
	d.bufSize = packetHeaderLen + 2 + max(routerLSALen(maxLinks), maxPrefixLSALen)
	d.bufChunk = max(na, 1)
	return d
}

// Router returns the router at a node (nil for hosts).
func (d *Domain) Router(n topo.NodeID) *Router { return d.routers[n] }

// Routers returns all routers keyed by node.
func (d *Domain) Routers() map[topo.NodeID]*Router { return d.routers }

// Scheduler returns the domain's event scheduler.
func (d *Domain) Scheduler() *event.Scheduler { return d.sched }

// Topology returns the domain's topology.
func (d *Domain) Topology() *topo.Topology { return d.topo }

// Start brings the protocol up with the IGP already converged. Every
// router originates its Router LSA, its loopback Prefix LSA and a Prefix
// LSA for each topology prefix attached to it, as the boot flood would;
// each is stamped with its first sequence number and that one instance
// is installed in the LSDB of every router the flood would reach (those
// joined to the originator by links not failed). Each router schedules
// its own SPF run at spfDelay, and the hello, refresh and age tickers
// start. Start sends no packet and lists nothing for retransmission;
// every later change (lies, weight changes, failures, the resync when an
// adjacency re-forms) floods as before.
//
// The routers thus hold what a flooded start leaves them once its flood
// has converged, and where that flood would finish within spfDelay the
// FIBs are the same from the first SPF run on. Where link delays make the
// flood outlast spfDelay, a flooded start would run first SPFs on partial
// databases; a synced start skips that boot transient. The installed
// instances date from instant 0, not from their flood arrival. Aging
// counts whole seconds from that date and acts only at the minute
// sweeps, so this can move the purge of an LSA whose originator stopped
// refreshing it by one sweep at most.
//
// The routers of a component whose LSDBs were empty before Start end it
// holding the very same instances, so Start builds their first SPF cache
// once, as the component's boot image, and each router's first run
// clones it (see delta.go).
func (d *Domain) Start() {
	reach := d.floodReach()
	// Size every LSDB for its component's LSAs: per router its Router LSA
	// and loopback, plus one per prefix attachment. A component is keyed
	// by its first router, the slice its members share.
	lsas := make(map[*Router]int)
	for node := range d.routers {
		lsas[reach[node][0]] += 2
	}
	for _, p := range d.topo.Prefixes() {
		for _, a := range p.Attachments {
			if d.routers[a.Node] != nil {
				lsas[reach[a.Node][0]]++
			}
		}
	}
	// A component whose LSDBs are all empty ends the boot with the same
	// instances in each of them, so it gets a boot image; one whose LSDBs
	// were not empty does not.
	held := make(map[*Router]bool)
	for node, r := range d.routers {
		r.db.reserve(lsas[reach[node][0]])
		if r.db.Len() > 0 {
			held[reach[node][0]] = true
		}
	}
	// Walk routers in topology-node order, not map order: origination and
	// ticker phase are output-visible, and two runs of the same scenario
	// must schedule identical event sequences.
	for _, n := range d.topo.Nodes() {
		r := d.routers[n.ID]
		if r == nil {
			continue
		}
		r.boot(r.ownRouterLSA(), reach[r.node])
		r.boot(r.prefixLSA(0, topo.Prefix{Prefix: LoopbackPrefix(r.node)}, 0), reach[r.node])
		d.sched.NewTicker(helloInterval, r.helloTick)
		d.sched.NewTicker(refreshPeriod, r.refreshOwn)
		d.sched.NewTicker(ageSweepEvery, r.ageSweep)
	}
	for i, p := range d.topo.Prefixes() {
		for _, a := range p.Attachments {
			r := d.routers[a.Node]
			if r == nil {
				continue
			}
			// LSID 0 is the loopback; topology prefixes start at 1.
			r.boot(r.prefixLSA(uint32(i)+1, p, a.Cost), reach[r.node])
		}
	}
	// One boot image per component, complete before any first SPF run
	// reads it: each member's first run clones it (recomputeFull).
	for first := range lsas {
		if held[first] {
			continue
		}
		img := first.buildCache()
		img.share()
		for _, x := range reach[first.node] {
			x.image = img
		}
	}
}

// floodReach maps each router's node to the routers a flood from it
// reaches: its component of the adjacency graph over links not failed.
// Members of a component share one slice. SetLinkState fails both
// directions of a link, so reach is symmetric.
func (d *Domain) floodReach() map[topo.NodeID][]*Router {
	reach := make(map[topo.NodeID][]*Router, len(d.routers))
	for _, n := range d.topo.Nodes() {
		r := d.routers[n.ID]
		if r == nil || reach[n.ID] != nil {
			continue
		}
		comp := []*Router{r}
		reach[n.ID] = comp // marks r as visited until the slice is final
		for i := 0; i < len(comp); i++ {
			for _, nb := range comp[i].nbrList {
				if !d.linkDown[nb.link.ID] && reach[nb.peer.node] == nil {
					reach[nb.peer.node] = comp
					comp = append(comp, nb.peer)
				}
			}
		}
		for _, x := range comp {
			reach[x.node] = comp
		}
	}
	return reach
}

// deliver puts a packet on the wire towards n: it is processed by the
// receiving router after the link's propagation delay. Packets on failed
// links are dropped. A link's delay is constant, so its packets arrive in
// send order: the adjacency queues them and every arrival is the same
// pre-built event body taking the oldest — one scheduler event per packet,
// no closure per packet.
func (d *Domain) deliver(n *neighbor, data []byte) {
	if d.linkDown[n.link.ID] {
		d.putBuf(data)
		return
	}
	counts := PacketType(data[0]) != PktHello
	if d.LossRate > 0 && counts {
		if d.lossRng == nil {
			d.lossRng = rand.New(rand.NewSource(0xf1bb))
		}
		if d.lossRng.Float64() < d.LossRate {
			d.putBuf(data) // lost on the wire; retransmission recovers it
			return
		}
	}
	delay := n.link.Delay
	if delay <= 0 {
		delay = d.defaultDelay
	}
	if counts {
		d.inflight++
	}
	n.wire.Push(data)
	d.sched.AfterCall(delay, (*wireArrival)(n))
}

// receive is the arrival of the oldest packet in flight from router from
// towards n: the body of every wireArrival event.
func (d *Domain) receive(from RouterID, n *neighbor) {
	data := n.wire.Pop()
	if PacketType(data[0]) != PktHello {
		d.inflight--
	}
	if !d.linkDown[n.link.ID] {
		n.peer.HandlePacket(from, data)
	}
	d.putBuf(data)
}

func (d *Domain) protocolError(at RouterID, err error) {
	d.Errors = append(d.Errors, fmt.Errorf("router %d: %w", at, err))
}

func (d *Domain) adjacencyChanged(l topo.Link, up bool) {
	if d.OnAdjacencyChange != nil {
		d.OnAdjacencyChange(l, up)
	}
}

func (d *Domain) fibChanged(n topo.NodeID, t *fib.Table, diff *fib.Diff) {
	if d.OnFIBDelta != nil {
		d.OnFIBDelta(n, t, diff)
	}
}

// SetLinkWeight reconfigures the IGP metric of the link a->b (and its
// reverse) and makes both routers re-originate their Router LSAs — the
// per-device reconfiguration step of traditional weight-based TE. The
// whole network re-floods and re-runs SPF, which is exactly the cost the
// paper's §1 argues makes weight changes too slow for flash crowds.
func (d *Domain) SetLinkWeight(a, b topo.NodeID, w int64) error {
	l, ok := d.topo.FindLink(a, b)
	if !ok {
		return fmt.Errorf("ospf: no link %d-%d", a, b)
	}
	d.topo.SetWeight(l.ID, w)
	if l.Reverse != topo.NoLink {
		d.topo.SetWeight(l.Reverse, w)
	}
	for _, end := range [2]topo.NodeID{a, b} {
		r := d.routers[end]
		if r == nil {
			continue
		}
		for _, n := range r.nbrList {
			if n.link.ID == l.ID || n.link.ID == l.Reverse {
				n.link.Weight = w
			}
		}
		r.originateRouterLSA()
	}
	return nil
}

// SetLinkState administratively fails or heals both directions of a link.
// Failure is detected by the dead-interval timeout, as in a real IGP
// without BFD.
func (d *Domain) SetLinkState(a, b topo.NodeID, up bool) error {
	l, ok := d.topo.FindLink(a, b)
	if !ok {
		return fmt.Errorf("ospf: no link %d-%d", a, b)
	}
	d.linkDown[l.ID] = !up
	if l.Reverse != topo.NoLink {
		d.linkDown[l.Reverse] = !up
	}
	return nil
}

// LinkBlocked reports whether a directed link is administratively failed
// (packets on it are silently dropped).
func (d *Domain) LinkBlocked(id topo.LinkID) bool {
	return uint(id) < uint(len(d.linkDown)) && d.linkDown[id]
}

// Converged reports whether no protocol messages are in flight, no SPF
// runs are pending, and every flooded LSA has been acknowledged (so lost
// updates with pending retransmissions count as not converged). Hello
// traffic does not affect convergence.
func (d *Domain) Converged() bool {
	if d.inflight != 0 || d.spfPending != 0 {
		return false
	}
	for _, r := range d.routers {
		for _, n := range r.nbrList {
			if n.up && n.listed > 0 {
				return false
			}
		}
	}
	return true
}

// RunUntilConverged steps the scheduler until the domain converges or the
// virtual clock passes limit. It returns the convergence time.
func (d *Domain) RunUntilConverged(limit time.Duration) (time.Duration, error) {
	for !d.Converged() {
		if !d.sched.Step() {
			break
		}
		if d.sched.Now() > limit {
			return d.sched.Now(), fmt.Errorf("ospf: not converged after %v (inflight=%d spf=%d)",
				limit, d.inflight, d.spfPending)
		}
	}
	return d.sched.Now(), nil
}

// ConvergedIdentically verifies that every router holds the same LSDB.
func (d *Domain) ConvergedIdentically() error {
	var ref [32]byte
	var refNode topo.NodeID = topo.NoNode
	for n, r := range d.routers {
		dig := r.db.Digest()
		if refNode == topo.NoNode {
			ref, refNode = dig, n
			continue
		}
		if dig != ref {
			return fmt.Errorf("ospf: LSDB of %s differs from %s",
				d.topo.Name(n), d.topo.Name(refNode))
		}
	}
	return nil
}

// Plane snapshots all routers' FIBs into a forwarding plane for tracing.
func (d *Domain) Plane() *fib.Plane {
	p := fib.NewPlane()
	for n, r := range d.routers {
		p.Tables[n] = r.FIB()
	}
	return p
}

// ControlPlaneStats aggregates protocol counters for the overhead
// experiments.
type ControlPlaneStats struct {
	PacketsSent uint64
	BytesSent   uint64
	SPFRuns     uint64
	// SPFFullRuns and SPFIncrementalRuns split SPFRuns by strategy: full
	// graph rebuilds versus delta-pipeline recomputations.
	SPFFullRuns        uint64
	SPFIncrementalRuns uint64
	LSDBSize           int
}

// Stats sums protocol counters over all routers.
func (d *Domain) Stats() ControlPlaneStats {
	var s ControlPlaneStats
	for _, r := range d.routers {
		s.PacketsSent += r.PacketsSent
		s.BytesSent += r.BytesSent
		s.SPFRuns += r.spfRuns
		s.SPFFullRuns += r.spfFullRuns
		s.SPFIncrementalRuns += r.spfIncRuns
		if r.db.Len() > s.LSDBSize {
			s.LSDBSize = r.db.Len()
		}
	}
	return s
}
