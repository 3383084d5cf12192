package netsim

// This file is the classifier: the forwarding walk that sorts flows into
// aggregates, and the member check a route delta runs instead of it. Both
// read one resolved forwarding entry per router rather than the router's
// table, so a flow costs a longest-prefix match only where its router's
// route does not already answer for its destination, and a hash only where
// that route has more than one next hop. referenceTrace (verify.go), one
// fib.Plane.WalkTrace per flow, is the walk they are held to.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"net/netip"
	"slices"

	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// fwdEntry is one router's resolved forwarding state: the route its table
// last matched, with every next hop's link resolved the way the walk
// resolves it. A leaf entry answers for every destination its prefix
// covers — no installed prefix lies inside it — and any entry answers for
// a destination whose fresh lookup matches the same prefix in the same
// table. A zero entry (table nil) holds nothing.
type fwdEntry struct {
	table *fib.Table // the snapshot the route came from
	route fib.Route
	total int    // route.TotalWeight()
	leaf  bool   // no prefix in table lies strictly inside route.Prefix
	word  uint64 // hopWord(router, route.Prefix)
	hops  []fwdHop
}

// fwdHop is one next hop of a resolved route, parallel to
// route.NextHops: the node it leads to and the one link towards it
// (NoLink when there is none). A pair of routers has at most one link, so
// neither the link nor its capacitated bit moves under SetWeight.
type fwdHop struct {
	node        topo.NodeID
	link        topo.LinkID
	capacitated bool
}

// dropEntry forgets a router's resolved route, keeping the hop array for
// the next resolution.
func (n *Network) dropEntry(node topo.NodeID) {
	if uint(node) < uint(len(n.fwd)) {
		e := &n.fwd[node]
		*e = fwdEntry{hops: e.hops[:0]}
	}
}

// entry returns the router's forwarding entry for dst, resolving it from
// the live table when the one held does not answer for dst; nil when the
// router has no table (or lies outside the topology) or no route to dst.
func (n *Network) entry(node topo.NodeID, dst netip.Addr) *fwdEntry {
	if uint(node) >= uint(len(n.fwd)) {
		return nil
	}
	e := &n.fwd[node]
	if e.leaf && e.route.Prefix.Contains(dst) {
		return e
	}
	tbl := n.tables[node]
	if tbl == nil {
		return nil
	}
	r, leaf, ok := tbl.LookupLeaf(dst)
	if !ok {
		return nil
	}
	if e.table == tbl && e.route.Prefix == r.Prefix {
		return e
	}
	e.table, e.route, e.total, e.leaf = tbl, r, r.TotalWeight(), leaf
	e.word = hopWord(node, r.Prefix)
	e.hops = e.hops[:0]
	for _, nh := range r.NextHops {
		h := fwdHop{node: nh.Node, link: topo.NoLink}
		if l, found := n.topo.FindLink(node, nh.Node); found {
			h.link, h.capacitated = l.ID, l.Capacity > 0
		}
		e.hops = append(e.hops, h)
	}
	return e
}

// next returns the hop the entry's router forwards the flow to, hashing
// the flow only when the route has more than one next hop. The entry must
// not be Local.
func (e *fwdEntry) next(key fib.FlowKey) *fwdHop {
	if len(e.hops) == 1 {
		return &e.hops[0]
	}
	return &e.hops[e.table.Pick(e.route, e.total, key)]
}

// traceFlow classifies one flow against the current tables: the node
// path, the matched prefix per hop, and the link path, with the path word
// of the aggregate signature folded in as it goes. Any failure (no table,
// no route, loop, the hop limit, a missing or failed link) yields the
// canonical blocked trace. The result is the network's scratch trace,
// valid until the next call; rebucket clones it when an aggregate has to
// keep it.
func (n *Network) traceFlow(f *Flow) *trace {
	tr := &n.scratch
	tr.reset(false)
	path := uint64(fnvOffset)
	cur := f.Ingress
	for hop := 0; hop < fib.MaxHops; hop++ {
		e := n.entry(cur, f.Key.Dst)
		if e == nil {
			break
		}
		tr.nodes = append(tr.nodes, cur)
		tr.matched = append(tr.matched, e.route.Prefix)
		path = fnvWord(path, e.word)
		if e.route.Local {
			tr.path = path
			return tr
		}
		nh := e.next(f.Key)
		if nh.link == topo.NoLink || n.linkDown[nh.link] || slices.Contains(tr.nodes, nh.node) {
			break
		}
		tr.links = append(tr.links, nh.link)
		if nh.capacitated {
			tr.capLinks = append(tr.capLinks, nh.link)
		}
		cur = nh.node
	}
	tr.reset(true)
	return tr
}

// forwardsAsRecorded reports whether member f of a still forwards along
// a's trace, consulting only the given hops: at each, the router must
// match the recorded prefix for f and pick the recorded next node over a
// link that is up (or deliver, at the last hop). Hops outside the set
// forward every member as recorded, so a member that passes has the trace
// it had. It reads entries, tables and link state only and allocates
// nothing. A blocked aggregate records no hops to compare: its members
// always need the full trace.
func (n *Network) forwardsAsRecorded(a *Aggregate, f *Flow, hops uint64) bool {
	if a.blocked {
		return false
	}
	last := len(a.nodes) - 1
	for ; hops != 0; hops &= hops - 1 {
		j := bits.TrailingZeros64(hops)
		if j > last {
			break
		}
		e := n.entry(a.nodes[j], f.Key.Dst)
		if e == nil || e.route.Prefix != a.matched[j] || e.route.Local != (j == last) ||
			j < last && (e.next(f.Key).node != a.nodes[j+1] || n.linkDown[a.links[j]]) {
			return false
		}
	}
	return true
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds one word into an FNV-1a-style hash state.
func fnvWord(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// hopWord is one hop's contribution to the aggregate signature: the
// router and the prefix it matched.
func hopWord(node topo.NodeID, p netip.Prefix) uint64 {
	a16 := p.Addr().As16()
	h := fnvWord(fnvOffset, uint64(node))
	h = fnvWord(h, binary.BigEndian.Uint64(a16[:8]))
	h = fnvWord(h, binary.BigEndian.Uint64(a16[8:]))
	return fnvWord(h, uint64(p.Bits()))
}

// sigOf hashes the aggregate class key: the ingress, the cap and the
// trace's path word, finished with an avalanche mixer. Collisions chain
// in Network.aggs and are resolved by full comparison.
func (tr *trace) sigOf(ingress topo.NodeID, maxRate float64) uint64 {
	h := fnvWord(fnvWord(fnvOffset, uint64(ingress)), math.Float64bits(maxRate))
	if tr.blocked {
		h = fnvWord(h, 1)
	}
	h = fnvWord(h, tr.path)
	// splitmix64 finalizer: avalanche so bucket chains stay short.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
