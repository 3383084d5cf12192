package ospf

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// The fixed protocol timers, suited to the demo's time scale.
const (
	helloInterval = time.Second
	deadInterval  = 4 * helloInterval
	spfDelay      = 10 * time.Millisecond // debounce between LSDB change and SPF
	rxmtInterval  = time.Second           // retransmission of unacked LSAs
	refreshPeriod = 1800 * time.Second    // re-origination of self LSAs
	ageSweepEvery = 60 * time.Second      // purge of MaxAge LSAs
)

// Config is empty: every protocol timer is a constant.
//
// Deprecated: pass Config{}; NewDomain keeps the parameter only for the
// benchmark module, which passes it.
type Config struct{}

// neighbor is the per-adjacency state. NewDomain carves every neighbor,
// its wire and retransmission rings' first buffers and the routers'
// neighbor lists from slabs it sizes from the topology; its events are
// the neighbor itself as a Callback (wireArrival, rxmtDue), so an
// adjacency allocates nothing of its own.
type neighbor struct {
	id        RouterID
	link      topo.Link // directed link self -> neighbor
	up        bool
	wasDown   bool // declared dead at least once (gates the up callback)
	lastHello time.Duration
	self      *Router // the router at this end

	// The retransmission list towards the neighbor (RFC 2328 §13.6) is
	// the ring rxmt: every update sent, in send order, with the instance
	// sent. Every entry is due rxmtInterval after its send, so the ring
	// is in due order too, and one timer runs it: rxmtTimer is armed at
	// the front's due and its body, retransmitDue, resends whatever is
	// due and re-arms. An entry is live until an ack or a later send of
	// its key clears it; a cleared entry stays in the ring until it
	// reaches the front. listed counts the live entries, at most one per
	// key; the ring and the timer go when it falls to zero.
	rxmt      event.Ring[rxmtEntry]
	rxmtTimer event.Handle
	listed    int

	// The transport half of the adjacency (see Domain.deliver): peer is the
	// router at the far end, wire the packets travelling towards it in send
	// order, each received by one wireArrival event.
	peer *Router
	wire event.Ring[[]byte]
}

// wireArrival is a neighbor as the Callback of a packet's arrival at its
// far end: the oldest packet on its wire.
type wireArrival neighbor

func (a *wireArrival) Fire() {
	n := (*neighbor)(a)
	n.self.dom.receive(n.self.id, n)
}

// rxmtDue is a neighbor as the Callback of its retransmission timer.
type rxmtDue neighbor

func (a *rxmtDue) Fire() {
	n := (*neighbor)(a)
	n.self.retransmitDue(n)
}

// rxmtEntry is one send in a neighbor's retransmission ring: the key and
// the instance sent, and the instant it is due to be resent. lsa is nil
// once the entry is cleared.
type rxmtEntry struct {
	key Key
	lsa *LSA
	due time.Duration
}

// listedEntry returns the live entry for k in n's retransmission ring,
// nil if n lists no instance of k. The ring holds about one commit's
// updates, so a scan beats a map.
func (n *neighbor) listedEntry(k Key) *rxmtEntry {
	if n.listed == 0 {
		return nil
	}
	for i := range n.rxmt.Len() {
		if e := n.rxmt.At(i); e.lsa != nil && e.key == k {
			return e
		}
	}
	return nil
}

// rxmtKeep is the largest ring buffer a neighbor keeps once its
// retransmission list empties. A full-database send grows a ring to the
// size of the LSDB: the resync when an adjacency re-forms does, and the
// flooded cold start the tests keep as Start's reference grows the rings
// of a fat-tree k=8 to 69 713 entries across its 512 adjacencies, 1.7 MB
// that would stay resident (Start itself boots synced and sends
// nothing). The floods of an igp-churn op fit in 16, so no op regrows a
// ring.
const rxmtKeep = 16

// Router is one IGP speaker. Routers are owned by a Domain and driven by
// its event scheduler; they are not safe for concurrent use.
type Router struct {
	dom  *Domain
	node topo.NodeID
	id   RouterID

	// nbrList holds the router's adjacencies sorted by router ID: every
	// output-visible iteration (flooding, hellos, LSA origination) walks
	// it, and neighbor looks an adjacency up in it.
	nbrList []*neighbor
	db      *LSDB
	fib     *fib.Table

	ownSeq       map[Key]uint32
	spfScheduled bool
	spfRuns      uint64

	// spf is the debounced SPF event, the router itself as a spfRun; a
	// field, so that the allocation tests can wrap a run.
	spf event.Callback

	// flushed remembers recently MaxAged LSAs (key -> seq/instant of the
	// flush) so a neighbor's crossing retransmission of an older positive
	// instance cannot resurrect a withdrawn LSA — the stand-in for real
	// OSPF's "retain the MaxAge LSA until every neighbor acked it".
	// Without it, heavy lie churn (the controller replacing one large
	// plan with another) ping-pongs flush/reinstall floods forever.
	// Made at the first flush: most routers never see one.
	flushed map[Key]flushMark

	// Delta pipeline state: LSDB mutations logged since the last SPF run,
	// and the incrementally maintained graph/tree they are replayed onto.
	// Until the first run, image is the component's boot image that run
	// clones (Domain.Start); an LSDB change before that run drops it.
	changeLog   []lsaChange
	cache       *spfCache
	image       *spfCache
	spfFullRuns uint64 // recomputations that rebuilt everything
	spfIncRuns  uint64 // recomputations served by the delta pipeline

	// Stats for the control-plane overhead experiments.
	PacketsSent, PacketsRcvd uint64
	BytesSent                uint64
}

// flushMark records one flushed LSA: the sequence number of the MaxAge
// instance and when it was seen (for pruning).
type flushMark struct {
	seq uint32
	at  time.Duration
}

// initRouter sets up r, carved by NewDomain, as the router at node.
func initRouter(r *Router, dom *Domain, node topo.NodeID) {
	*r = Router{
		dom:    dom,
		node:   node,
		id:     NodeRouterID(node),
		db:     NewLSDB(),
		fib:    fib.NewTable(node),
		ownSeq: make(map[Key]uint32),
	}
	r.db.SetClock(dom.sched.Now)
	r.spf = (*spfRun)(r)
}

// spfRun is a router as the Callback of its debounced SPF run: it
// computes the routes and publishes the run's FIB delta.
type spfRun Router

func (s *spfRun) Fire() {
	r := (*Router)(s)
	r.spfScheduled = false
	diff := r.computeRoutes()
	r.dom.spfPending--
	if diff != nil {
		r.dom.fibChanged(r.node, r.fib, diff)
	}
}

// ageSweep purges LSAs that reached MaxAge without a refresh — their
// originator is gone (crashed router, departed controller) — and prunes
// flush tombstones old enough that no retransmission of the withdrawn
// instance can still be in flight.
func (r *Router) ageSweep() {
	changed := false
	for _, k := range r.db.Expired() {
		r.dbRemove(k)
		changed = true
	}
	if changed {
		r.scheduleSPF()
	}
	now := r.dom.sched.Now()
	for k, m := range r.flushed {
		if now-m.at >= ageSweepEvery {
			delete(r.flushed, k)
		}
	}
}

// ID returns the router's protocol identifier.
func (r *Router) ID() RouterID { return r.id }

// Node returns the router's topology node.
func (r *Router) Node() topo.NodeID { return r.node }

// FIB returns the router's forwarding table. The table is replaced
// atomically on SPF runs, so holding the pointer across events is safe for
// reading a consistent snapshot.
func (r *Router) FIB() *fib.Table { return r.fib }

// DB returns the router's link-state database (read-only for callers).
func (r *Router) DB() *LSDB { return r.db }

// SPFRuns returns how many times this router recomputed routes.
func (r *Router) SPFRuns() uint64 { return r.spfRuns }

// SPFFullRuns returns how many recomputations rebuilt the graph and ran a
// full Dijkstra (cache misses and fallbacks).
func (r *Router) SPFFullRuns() uint64 { return r.spfFullRuns }

// SPFIncrementalRuns returns how many recomputations were served by the
// delta pipeline (incrementally patched tree, per-prefix recompute).
func (r *Router) SPFIncrementalRuns() uint64 { return r.spfIncRuns }

// Neighbors returns the IDs of adjacent routers that are currently up,
// in ascending router-ID order.
func (r *Router) Neighbors() []RouterID {
	var out []RouterID
	for _, n := range r.nbrList {
		if n.up {
			out = append(out, n.id)
		}
	}
	return out
}

// neighbor returns the adjacency towards the router id, nil if none.
func (r *Router) neighbor(id RouterID) *neighbor {
	i, ok := slices.BinarySearchFunc(r.nbrList, id, func(n *neighbor, id RouterID) int { return cmp.Compare(n.id, id) })
	if !ok {
		return nil
	}
	return r.nbrList[i]
}

// --- Origination -------------------------------------------------------

func (r *Router) nextSeq(k Key) uint32 {
	r.ownSeq[k]++
	return r.ownSeq[k]
}

// ownRouterLSA builds this router's Router LSA from its live adjacencies.
func (r *Router) ownRouterLSA() *LSA {
	l := &LSA{Header: Header{Type: TypeRouter, AdvRouter: r.id, LSID: 0}}
	for _, n := range r.nbrList {
		if !n.up {
			continue
		}
		l.RouterLinks = append(l.RouterLinks, RouterLink{
			Neighbor: n.id,
			Metric:   uint32(n.link.Weight),
		})
	}
	return l
}

// prefixLSA builds a Prefix LSA for a locally attached prefix. lsid must
// be unique per prefix within this router.
func (r *Router) prefixLSA(lsid uint32, p topo.Prefix, cost int64) *LSA {
	return &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: r.id, LSID: lsid},
		Prefix: p.Prefix,
		Metric: uint32(cost),
	}
}

// originateRouterLSA (re)builds and floods this router's Router LSA.
func (r *Router) originateRouterLSA() { r.originate(r.ownRouterLSA()) }

// originate assigns the next sequence number, installs locally, floods,
// and schedules SPF.
func (r *Router) originate(l *LSA) {
	k := l.Header.Key()
	l.Header.Seq = r.nextSeq(k)
	r.dbInstall(l)
	r.floodExcept(l, 0)
	r.scheduleSPF()
}

// boot originates l as Start does, with the network already synced:
// stamped with its sequence number, the one instance is installed in the
// LSDB of every router in reach, and this router's SPF run is scheduled.
// Nothing is sent.
func (r *Router) boot(l *LSA, reach []*Router) {
	l.Header.Seq = r.nextSeq(l.Header.Key())
	for _, x := range reach {
		x.dbInstall(l)
	}
	r.scheduleSPF()
}

// OriginateForeign floods an LSA on behalf of another origin (the Fibbing
// controller's injection point uses this: the controller computes the LSA,
// the attached router floods it). Sequence numbers are managed by the
// caller via the LSA's Seq field; the local freshness check still applies.
func (r *Router) OriginateForeign(l *LSA) error {
	if l.Header.AdvRouter == 0 {
		return fmt.Errorf("ospf: foreign LSA without advertising router")
	}
	if old, ok := r.db.Get(l.Header.Key()); ok && !l.Header.Newer(old.Header) {
		return fmt.Errorf("ospf: foreign LSA %s not newer than stored seq %d",
			l.Header.Key(), old.Header.Seq)
	}
	r.installAndFlood(l, 0)
	return nil
}

// refreshOwn re-floods all self-originated LSAs with bumped sequence
// numbers (periodic refresh, as real OSPF does every 30 minutes).
func (r *Router) refreshOwn() {
	for _, l := range r.db.All() {
		if l.Header.AdvRouter != r.id {
			continue
		}
		c := l.Clone()
		r.originate(c)
	}
}

// --- Flooding ----------------------------------------------------------

// floodExcept sends l to every live neighbor but one. The instance is
// encoded and checksummed once; each neighbor's packet is a copy.
func (r *Router) floodExcept(l *LSA, except RouterID) {
	enc := r.dom.encodeLSA(l)
	for _, n := range r.nbrList {
		if !n.up || n.id == except {
			continue
		}
		r.sendEncoded(n, l, enc)
	}
}

func (r *Router) sendUpdate(n *neighbor, l *LSA) {
	r.sendEncoded(n, l, r.dom.encodeLSA(l))
}

// sendEncoded sends l, whose wire form is enc, as a one-LSA update and
// lists it for retransmission until acked. MaxAge flushes are also
// retransmitted; the ack carries the seq so either instance clears it.
func (r *Router) sendEncoded(n *neighbor, l *LSA, enc []byte) {
	r.transmitUpdate(n, enc)
	due := r.listRetransmit(n, l.Header.Key(), l)
	if !n.rxmtTimer.Scheduled() {
		// An idle timer means an empty ring: this entry is its front.
		n.rxmtTimer = r.dom.sched.AtCall(due, (*rxmtDue)(n))
	}
}

func (r *Router) transmitUpdate(n *neighbor, enc []byte) {
	buf := r.dom.getBuf(packetHeaderLen + 2 + len(enc))
	buf = appendPacketHeader(buf, PktLSUpdate, r.id, 1)
	r.transmit(n, appendUpdateLSA(buf, enc))
}

// listRetransmit lists l, just sent to n, for retransmission rxmtInterval
// from now, superseding any earlier send of its key, and returns the due
// instant. Arming the timer is the caller's.
func (r *Router) listRetransmit(n *neighbor, k Key, l *LSA) time.Duration {
	due := r.dom.sched.Now() + rxmtInterval
	if e := n.listedEntry(k); e != nil {
		e.lsa = nil
		n.listed--
	}
	n.rxmt.Push(rxmtEntry{key: k, lsa: l, due: due})
	n.listed++
	return due
}

// retransmitDue is the body of n's retransmission timer. It resends every
// live entry that is due, in send order, pops the cleared entries it
// meets on the way, and re-arms at the first live entry still ahead. Each
// instance is thus resent exactly rxmtInterval after its last send. The
// timer is armed only while n lists a key, and every listed key has a
// live entry, so the walk always ends at one. A down adjacency
// resends nothing: its list is dropped, as helloTick drops it when the
// neighbor dies.
func (r *Router) retransmitDue(n *neighbor) {
	if !n.up {
		r.dropRetransmits(n)
		return
	}
	now := r.dom.sched.Now()
	for {
		e := n.rxmt.Peek()
		switch {
		case e.lsa == nil:
			n.rxmt.Pop() // cleared: acked or resent since
		case e.due > now:
			n.rxmtTimer = r.dom.sched.AtCall(e.due, (*rxmtDue)(n))
			return
		default:
			n.rxmt.Pop()
			n.listed--
			r.transmitUpdate(n, r.dom.encodeLSA(e.lsa))
			r.listRetransmit(n, e.key, e.lsa)
		}
	}
}

// dropRetransmits empties n's retransmission list, its ring and its timer.
func (r *Router) dropRetransmits(n *neighbor) {
	n.listed = 0
	r.dom.sched.Cancel(n.rxmtTimer)
	if n.rxmt.Cap() > rxmtKeep {
		n.rxmt = event.Ring[rxmtEntry]{}
		return
	}
	for n.rxmt.Len() > 0 {
		n.rxmt.Pop()
	}
}

// clearAcked stops retransmitting the instance of h's key to n if the
// neighbor has proved it holds one at least as fresh. It reports whether
// the entry it cleared held the very instance h describes: the same seq,
// and a flush only if h is one.
func (r *Router) clearAcked(n *neighbor, h Header) (same bool) {
	e := n.listedEntry(h.Key())
	if e == nil || e.lsa.Header.Seq > h.Seq {
		return false
	}
	l := e.lsa
	e.lsa = nil
	if n.listed--; n.listed == 0 {
		r.dropRetransmits(n)
	}
	return l.Header.Seq == h.Seq && (l.Header.Age >= MaxAgeSeconds) == (h.Age >= MaxAgeSeconds)
}

func (r *Router) sendAck(n *neighbor, h Header) {
	buf := r.dom.getBuf(packetHeaderLen + ackLen)
	buf = appendPacketHeader(buf, PktLSAck, r.id, 1)
	r.transmit(n, appendAck(buf, h))
}

func (r *Router) sendHello(n *neighbor) {
	r.transmit(n, appendPacketHeader(r.dom.getBuf(packetHeaderLen), PktHello, r.id, 0))
}

// transmit hands an encoded packet (a pooled buffer) to the link.
func (r *Router) transmit(n *neighbor, data []byte) {
	r.PacketsSent++
	r.BytesSent += uint64(len(data))
	r.dom.deliver(n, data)
}

// HandlePacket processes one received protocol message (wire format). The
// whole packet is checked before any of it is acted on; LSAs and acks are
// then read in place, and only an LSA that gets installed is decoded, so
// data is dead once HandlePacket returns.
func (r *Router) HandlePacket(from RouterID, data []byte) {
	pkt, err := checkPacket(data)
	if err != nil {
		r.dom.protocolError(r.id, err)
		return
	}
	if pkt.From != from {
		r.dom.protocolError(r.id, fmt.Errorf("ospf: source mismatch %d != %d", pkt.From, from))
		return
	}
	n := r.neighbor(from)
	if n == nil {
		r.dom.protocolError(r.id, fmt.Errorf("ospf: packet from non-neighbor %d", from))
		return
	}
	r.PacketsRcvd++
	switch pkt.Type {
	case PktHello:
		r.handleHello(n)
	case PktLSUpdate:
		rest := pkt.rest
		for i := 0; i < pkt.Count; i++ {
			var enc []byte
			enc, rest = nextUpdateLSA(rest)
			r.handleLSA(n, enc)
		}
	case PktLSAck:
		for i := 0; i < pkt.Count; i++ {
			r.clearAcked(n, wireAck(pkt.rest, i))
		}
	}
}

func (r *Router) handleHello(n *neighbor) {
	n.lastHello = r.dom.sched.Now()
	if !n.up {
		// Adjacency comes back: advertise it and resync the neighbor by
		// sending our full database (simplified database exchange).
		n.up = true
		r.originateRouterLSA()
		for _, l := range r.db.All() {
			r.sendUpdate(n, l)
		}
		if n.wasDown {
			n.wasDown = false
			r.dom.adjacencyChanged(n.link, true)
		}
	}
}

// handleLSA processes one checked LSA of an update from n. Everything but
// installation is decided by the header.
func (r *Router) handleLSA(n *neighbor, enc []byte) {
	h := wireHeader(enc)
	// Implied acknowledgment (as in OSPF): receiving an instance at least
	// as fresh as one we are retransmitting to this neighbor proves the
	// neighbor has it — stop retransmitting, or a stale-for-newer exchange
	// ping-pongs forever.
	implied := r.clearAcked(n, h)
	old, have := r.db.Get(h.Key())
	switch {
	case !have && h.Age >= MaxAgeSeconds:
		// Flush for an LSA we do not have: remember it and ack, so a
		// positive instance still retransmitting somewhere cannot
		// resurrect the withdrawal.
		r.noteFlush(h)
		r.sendAck(n, h)
	case !have && h.Seq <= r.flushed[h.Key()].seq:
		// A stale retransmission of an instance we already flushed:
		// ack it away instead of resurrecting the withdrawn LSA.
		r.sendAck(n, h)
	case !have || h.Newer(old.Header):
		r.sendAck(n, h)
		r.installAndFlood(materialiseLSA(enc), n.id)
	case h.Seq == old.Header.Seq:
		// Duplicate: do not re-flood, and ack it unless it was an implied
		// ack of the same instance (RFC 2328 §13.5, Table 19). Then the
		// updates crossed: our copy is on the FIFO link ahead of the ack we
		// would send, and clears the neighbor's retransmission on arrival.
		if !implied {
			r.sendAck(n, h)
		}
	default:
		// Neighbor is behind: send it our newer instance.
		r.sendUpdate(n, old)
	}
}

func (r *Router) installAndFlood(l *LSA, except RouterID) {
	k := l.Header.Key()
	if l.Header.Age >= MaxAgeSeconds {
		// Flush: remove after re-flooding the flush itself.
		r.noteFlush(l.Header)
		r.dbRemove(k)
	} else {
		// A genuinely newer instance supersedes any flush tombstone.
		if m, ok := r.flushed[k]; ok && l.Header.Seq > m.seq {
			delete(r.flushed, k)
		}
		r.dbInstall(l)
	}
	r.floodExcept(l, except)
	r.scheduleSPF()
}

// noteFlush records a MaxAge instance in the tombstone map.
func (r *Router) noteFlush(h Header) {
	k := h.Key()
	if m, ok := r.flushed[k]; !ok || h.Seq > m.seq {
		if r.flushed == nil {
			r.flushed = make(map[Key]flushMark)
		}
		r.flushed[k] = flushMark{seq: h.Seq, at: r.dom.sched.Now()}
	}
}

// --- Liveness ----------------------------------------------------------

func (r *Router) helloTick() {
	now := r.dom.sched.Now()
	for _, n := range r.nbrList {
		if n.up && now-n.lastHello > deadInterval && n.lastHello >= 0 {
			n.up = false
			n.wasDown = true
			r.dropRetransmits(n)
			r.originateRouterLSA()
			r.dom.adjacencyChanged(n.link, false)
		}
		// Hellos are sent even on down adjacencies so a healed link
		// re-forms the adjacency.
		r.sendHello(n)
	}
}

// --- Route computation -------------------------------------------------

// scheduleSPF arms the debounced recomputation: one event spfDelay from
// now runs computeRoutes, and publishes the run's FIB delta after the
// protocol errors the run raised.
func (r *Router) scheduleSPF() {
	if r.spfScheduled {
		return
	}
	r.spfScheduled = true
	r.dom.spfPending++
	r.dom.sched.AfterCall(spfDelay, r.spf)
}

// computeRoutes updates the FIB from the LSDB. The default path is the
// delta pipeline: replay the logged LSDB mutations onto the cached SPF
// graph, patch the shortest-path tree incrementally, recompute routes only
// for prefixes whose announcers were touched, and emit the result as a
// fib.Diff. It falls back to recomputeFull when no cache exists, the
// replay detects an inconsistency, or tombstoned slots dominate the cache.
// The change log's storage and the cache's per-run state are kept, empty,
// for the next run. It returns the run's FIB delta, nil when the FIB did
// not change; r.fib is the table the delta leads to.
func (r *Router) computeRoutes() *fib.Diff {
	r.spfRuns++
	changes := r.changeLog
	diff := r.replayChanges(changes)
	if r.cache != nil {
		r.cache.eff.reset()
	}
	clear(changes)
	r.changeLog = changes[:0]
	return diff
}

// replayChanges is computeRoutes' body: one run over the logged changes.
func (r *Router) replayChanges(changes []lsaChange) *fib.Diff {
	if r.cache == nil {
		return r.recomputeFull()
	}
	c := r.cache
	eff := &c.eff
	for _, ch := range changes {
		r.applyChange(c, ch)
		if eff.rebuild {
			return r.recomputeFull()
		}
	}
	if len(c.slots) > 2*c.live+16 {
		// Tombstones dominate after heavy churn: compact via a rebuild.
		return r.recomputeFull()
	}
	if len(eff.edges) == 0 && len(eff.dirty) == 0 {
		return nil // sequence-number noise only: routing cannot have changed
	}
	selfIdx, ok := c.index[r.id]
	if !ok {
		r.cache = nil // our own LSA vanished; resync on the next run
		return nil
	}

	// The patch is written into c.spare, the tree c.tree replaced. touched
	// is nil when the patch touched no slot or fell back to a full
	// Dijkstra (touchedAll); otherwise c.touched holds it as a bitset.
	touchedAll := false
	var touched []topo.NodeID
	if len(eff.edges) > 0 {
		tree, t, full := r.dom.spfScratch.IncrementalInto(c.spare, c.g, c.tree, eff.edges, nil)
		if tree != c.tree {
			c.spare, c.tree = c.tree, tree
		}
		if full {
			// The dirty region was too large: Incremental ran a whole
			// Dijkstra. Count it as a full run so the telemetry split
			// reflects what actually executed.
			touchedAll = true
			r.spfFullRuns++
		} else {
			touched = t
			c.markTouched(touched)
			r.spfIncRuns++
		}
	} else {
		r.spfIncRuns++ // prefix-only change: no SPF work at all
	}

	if !touchedAll && len(touched) == 0 && len(eff.dirty) == 0 {
		return nil // the changed edges carry none of our shortest paths
	}
	// Scan the index for prefixes to recompute. Its order (sorted by string
	// form) is output-visible: it is the diff's change order and the order
	// of any routeFor errors. This scan is the one per-run cost that grows
	// with the number of prefixes; it reads each entry's memoised
	// announcers and allocates nothing.
	diff := fib.NewDiff(r.node)
	gone := c.gone[:0] // dirty prefixes no live node announces any more
	for _, e := range c.prefixes {
		anns := c.resolved(e)
		if len(anns) == 0 {
			if e.dirty {
				gone = append(gone, e.prefix)
			}
			continue
		}
		if !touchedAll && !e.dirty && (len(touched) == 0 || !c.announcerTouched(anns)) {
			continue
		}
		route, ok := r.routeFor(c, e.prefix, anns, selfIdx, nil)
		old, had := r.fib.Get(e.prefix)
		switch {
		case ok && (!had || !route.Equal(old)):
			diff.Upsert(route)
		case !ok && had:
			diff.Delete(e.prefix)
		}
	}
	for _, p := range gone {
		if _, had := r.fib.Get(p); had {
			diff.Delete(p)
		}
	}
	c.gone = gone
	for _, e := range eff.dirty {
		c.prune(e)
	}
	if diff.Empty() {
		return nil
	}
	table := r.fib.Clone()
	if err := table.ApplyDiff(diff); err != nil {
		r.dom.protocolError(r.id, err)
		return r.recomputeFull()
	}
	r.fib = table
	return diff
}

// markTouched loads the touched slots into the cache's bitset.
func (c *spfCache) markTouched(touched []topo.NodeID) {
	n := (len(c.slots) + 63) / 64
	bits := slices.Grow(c.touched[:0], n)[:n]
	clear(bits)
	for _, v := range touched {
		bits[v/64] |= 1 << (v % 64)
	}
	c.touched = bits
}

// announcerTouched reports whether any announcer sits in the touched set.
// An announcer's slot may postdate the patch (no edge yet, so untouched).
func (c *spfCache) announcerTouched(anns []announcer) bool {
	for _, a := range anns {
		if w := int(a.idx / 64); w < len(c.touched) && c.touched[w]&(1<<(a.idx%64)) != 0 {
			return true
		}
	}
	return false
}

// fullState roots this router's tree over c, a cache fresh from the LSDB,
// and computes every prefix's route into a new table, resolving every
// announcer memo on the way. The table is filled at a cost per run, not
// per route: it reserves its trie for every prefix, and the routes' next
// hops are carved from shared chunks (hopArena). It reports false before
// the router originated its own Router LSA.
func (r *Router) fullState(c *spfCache) (*spfCache, *fib.Table, bool) {
	selfIdx, ok := c.index[r.id]
	if !ok {
		return nil, nil, false
	}
	c.tree = r.dom.spfScratch.Compute(c.g, selfIdx, nil)
	table := fib.NewTable(r.node)
	table.Reserve(len(c.prefixes))
	arena := &hopArena{left: len(c.prefixes)}
	// routeFor's scratch, sized once for a route's neighbors: a fresh
	// cache would grow it by append over the first routes.
	c.nhs = slices.Grow(c.nhs[:0], len(r.nbrList))
	c.nodes = slices.Grow(c.nodes[:0], len(r.nbrList))
	c.hops = slices.Grow(c.hops[:0], len(r.nbrList))
	for _, e := range c.prefixes {
		anns := c.resolved(e)
		if len(anns) == 0 {
			continue
		}
		route, ok := r.routeFor(c, e.prefix, anns, selfIdx, arena)
		if !ok {
			continue
		}
		if err := table.Install(route); err != nil {
			r.dom.protocolError(r.id, err)
		}
	}
	return c, table, true
}

// recomputeFull rebuilds the cache from the LSDB, runs a full Dijkstra,
// recomputes every prefix, and emits the whole-table difference as a diff
// so the data plane still re-paths selectively. A router that still holds
// its boot image clones it instead of rebuilding: its LSDB has not changed
// since Start built the image. It returns the diff, nil when empty.
func (r *Router) recomputeFull() *fib.Diff {
	var fresh *spfCache
	if r.image != nil {
		fresh, r.image = r.image.clone(), nil
	} else {
		fresh = r.buildCache()
	}
	c, table, ok := r.fullState(fresh)
	if !ok {
		r.cache = nil
		return nil // we have not originated our own Router LSA yet
	}
	r.cache = c
	r.spfFullRuns++
	diff := fib.DiffTables(r.node, r.fib, table)
	r.fib = table
	if diff.Empty() {
		return nil
	}
	return diff
}
