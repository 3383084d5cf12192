// Package fib implements per-router forwarding tables: longest-prefix-match
// routes with weighted equal-cost next-hop sets, and the per-flow ECMP hash
// that routers use to pick one next hop per flow.
//
// Weighted next hops are the data-plane half of Fibbing's uneven
// load-balancing: a router that computed three equal-cost paths, two of
// which resolve to the same physical next hop, installs that next hop with
// Weight 2 and splits traffic 2/3 : 1/3 with plain ECMP hashing.
//
// Tables also move by delta (diff.go): routers emit Diffs (per-prefix
// RouteChanges), ApplyDiff patches a table, and DiffTables derives the
// delta between two tables. The data plane decides which path-classes a
// diff can have re-pathed by overlapping the changed prefixes with each
// class's per-hop matched prefix (netsim's Aggregate.touchedBy).
//
// FlowKey.Hash is pinned bit for bit: every ECMP pick in every report and
// benchmark digest is a function of it, so it may get faster but never
// different (the tests compare it with a standard-library FNV reference).
// The forwarding walk — Hash, Select, Pick, WalkTrace — allocates nothing.
// The data plane classifies per route, not per address: it resolves each
// router's matched route once (LookupLeaf says when one route answers for
// a whole prefix) and runs only Pick, the ECMP hash, per viewer, at the
// hops whose route has more than one next hop.
//
// Snapshot contract: a table that has been handed out (ospf's OnFIBDelta,
// a Plane, Router.FIB) never changes afterwards. Its owner derives the
// next table with Clone, which is O(1) over a copy-on-write trie, and
// patches the clone; the patch costs the routes it changes, not the table.
// A stored Route's NextHops slice is immutable: the package never writes
// to it after Install, clones share it, and callers must not either.
package fib

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"fibbing.net/fibbing/internal/lpm"
	"fibbing.net/fibbing/internal/topo"
)

// NextHop is one forwarding alternative with its ECMP weight
// (the number of equal-cost RIB paths that resolved to it).
type NextHop struct {
	Node   topo.NodeID
	Link   topo.LinkID
	Weight int
}

// Route is one FIB entry.
type Route struct {
	Prefix   netip.Prefix
	NextHops []NextHop
	// Distance is the IGP cost of the route (diagnostics only).
	Distance int64
	// Local marks a directly attached destination: the router delivers
	// instead of forwarding.
	Local bool
}

// TotalWeight returns the sum of next-hop weights.
func (r Route) TotalWeight() int {
	total := 0
	for _, nh := range r.NextHops {
		total += nh.Weight
	}
	return total
}

// Ratios returns each next hop's traffic fraction under ideal hashing.
func (r Route) Ratios() map[topo.NodeID]float64 {
	total := r.TotalWeight()
	out := make(map[topo.NodeID]float64, len(r.NextHops))
	if total == 0 {
		return out
	}
	for _, nh := range r.NextHops {
		out[nh.Node] += float64(nh.Weight) / float64(total)
	}
	return out
}

// Normalize sorts next hops by node then link, and merges duplicates by
// summing weights. Returns the route for chaining.
func (r *Route) Normalize() *Route {
	slices.SortFunc(r.NextHops, func(a, b NextHop) int {
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Link, b.Link)
	})
	merged := r.NextHops[:0]
	for _, nh := range r.NextHops {
		if n := len(merged); n > 0 && merged[n-1].Node == nh.Node && merged[n-1].Link == nh.Link {
			merged[n-1].Weight += nh.Weight
			continue
		}
		merged = append(merged, nh)
	}
	r.NextHops = merged
	return r
}

// Table is one router's FIB.
type Table struct {
	Router topo.NodeID
	// Salt decorrelates ECMP hashing across routers, avoiding the
	// classic hash-polarisation artefact where every router picks the
	// same member of its ECMP group.
	Salt uint64
	lpm  *lpm.Table[Route]
}

// NewTable returns an empty FIB for a router. The salt is derived from the
// router ID.
func NewTable(router topo.NodeID) *Table {
	return &Table{Router: router, Salt: 0x9e3779b97f4a7c15 * (uint64(router) + 1), lpm: lpm.New[Route]()}
}

// normalized reports whether Normalize would leave the next hops as they are.
func (r Route) normalized() bool {
	for i := 1; i < len(r.NextHops); i++ {
		a, b := r.NextHops[i-1], r.NextHops[i]
		if a.Node > b.Node || a.Node == b.Node && a.Link >= b.Link {
			return false
		}
	}
	return true
}

// Install adds or replaces the route for route.Prefix. Routes with no next
// hops and Local unset are rejected. The table keeps route.NextHops when it
// is already normalized (the caller must not write to it afterwards) and a
// normalized copy otherwise, so a slice another table stores — a route
// read back with Get, or one carried by a Diff — is never written here.
func (t *Table) Install(route Route) error {
	if !route.Prefix.IsValid() {
		return fmt.Errorf("fib: invalid prefix")
	}
	if len(route.NextHops) == 0 && !route.Local {
		return fmt.Errorf("fib: route to %v has no next hops", route.Prefix)
	}
	for _, nh := range route.NextHops {
		if nh.Weight < 1 {
			return fmt.Errorf("fib: route to %v has next hop with weight %d", route.Prefix, nh.Weight)
		}
	}
	if !route.normalized() {
		route.NextHops = slices.Clone(route.NextHops)
		route.Normalize()
	}
	t.lpm.Insert(route.Prefix, route)
	return nil
}

// Remove deletes the route for the exact prefix.
func (t *Table) Remove(p netip.Prefix) bool { return t.lpm.Remove(p) }

// Len returns the number of installed routes.
func (t *Table) Len() int { return t.lpm.Len() }

// Lookup longest-prefix-matches dst.
func (t *Table) Lookup(dst netip.Addr) (Route, bool) {
	r, _, ok := t.lpm.Lookup(dst)
	return r, ok
}

// LookupLeaf is Lookup that also reports whether the matched route is a
// leaf: no installed prefix lies strictly inside its prefix, so the route
// is the longest match of every address the prefix covers and a caller
// may reuse it for all of them while it holds this table.
func (t *Table) LookupLeaf(dst netip.Addr) (r Route, leaf, ok bool) {
	r, _, leaf, ok = t.lpm.LookupLeaf(dst)
	return r, leaf, ok
}

// Get returns the route installed for the exact prefix.
func (t *Table) Get(p netip.Prefix) (Route, bool) { return t.lpm.Get(p) }

// Routes returns all installed routes in prefix order.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.lpm.Len())
	t.lpm.Walk(func(_ netip.Prefix, r Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

// FlowKey identifies a transport flow; ECMP hashes it so a flow's packets
// always take the same path (no reordering).
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Hash computes the FNV-1a hash of the flow key mixed with a router salt,
// passed through an avalanche finalizer. The finalizer matters: FNV-1a's
// low bit is the parity of the input's low bits, so without it a flow
// population whose ports and addresses increment in lockstep can land
// entirely in one bucket of `hash % 2` — every flow on one ECMP member.
//
// Hashed are the salt (little-endian), each address as netip marshals it
// (4 bytes for IPv4, 16 plus the zone for IPv6, none for the zero Addr),
// the ports (big-endian) and the protocol.
func (k FlowKey) Hash(salt uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(salt>>(8*i)))) * fnvPrime
	}
	h = hashAddr(hashAddr(h, k.Src), k.Dst)
	for _, b := range [5]byte{byte(k.SrcPort >> 8), byte(k.SrcPort), byte(k.DstPort >> 8), byte(k.DstPort), k.Proto} {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return mix64(h)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashAddr folds an address's binary marshalling into an FNV-1a state.
func hashAddr(h uint64, a netip.Addr) uint64 {
	switch {
	case a.Is4():
		for _, b := range a.As4() {
			h = (h ^ uint64(b)) * fnvPrime
		}
	case a.Is6():
		for _, b := range a.As16() {
			h = (h ^ uint64(b)) * fnvPrime
		}
		zone := a.Zone()
		for i := 0; i < len(zone); i++ {
			h = (h ^ uint64(zone[i])) * fnvPrime
		}
	}
	return h
}

// mix64 is the splitmix64/murmur3 finalizer: full avalanche so every
// output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Select picks the next hop for a flow: Lookup, then Pick.
func (t *Table) Select(dst netip.Addr, key FlowKey) (NextHop, Route, bool) {
	r, ok := t.Lookup(dst)
	if !ok || len(r.NextHops) == 0 {
		return NextHop{}, r, ok && r.Local
	}
	return r.NextHops[t.Pick(r, r.TotalWeight(), key)], r, true
}

// Pick returns the index in r.NextHops of the next hop this table assigns
// a flow, given total = r.TotalWeight() and at least one next hop: the
// flow hash indexes the weighted next-hop list, so a next hop with weight
// w receives w/total of flows. A route with a single next hop is not
// hashed — every hash picks it.
func (t *Table) Pick(r Route, total int, key FlowKey) int {
	if len(r.NextHops) == 1 {
		return 0
	}
	x := int(key.Hash(t.Salt) % uint64(total))
	for i, nh := range r.NextHops {
		x -= nh.Weight
		if x < 0 {
			return i
		}
	}
	// Unreachable given total > 0.
	return len(r.NextHops) - 1
}

// String renders the table like "show ip route".
func (t *Table) String() string {
	var b strings.Builder
	t.lpm.Walk(func(p netip.Prefix, r Route) bool {
		fmt.Fprintf(&b, "%v metric %d", p, r.Distance)
		if r.Local {
			b.WriteString(" local")
		}
		for _, nh := range r.NextHops {
			fmt.Fprintf(&b, " via node%d(w%d)", nh.Node, nh.Weight)
		}
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// Plane is the set of all routers' FIBs; it can trace a flow hop by hop.
type Plane struct {
	Tables map[topo.NodeID]*Table
}

// NewPlane returns an empty forwarding plane.
func NewPlane() *Plane {
	return &Plane{Tables: make(map[topo.NodeID]*Table)}
}

// MaxHops is the hop limit of the forwarding walk; with at most 64 routers
// consulted, a path's hop indices fit the data plane's 64-bit hop sets.
const MaxHops = 64

// WalkTrace walks a flow hop by hop from the ingress router, invoking
// visit at every consulted router with the matched route and the chosen
// next hop (zero NextHop when the route is Local — the delivery hop).
// The walk ends on delivery (nil error), on a lookup miss, missing table,
// forwarding loop or the hop limit (descriptive error), or when visit
// returns false (nil error; the visitor keeps its own verdict). It is the
// reference walk, one Select per hop: Trace is built on it, and the data
// plane, which classifies per route (a router's resolved route answers for
// every address its leaf prefix covers, and only ECMP hops hash), is held
// to it by its tests and by netsim.VerifyMaxMin's re-trace.
func (p *Plane) WalkTrace(ingress topo.NodeID, key FlowKey, visit func(cur topo.NodeID, route Route, nh NextHop) bool) error {
	cur := ingress
	var seen [MaxHops]topo.NodeID // routers consulted so far; cur is seen[hop]
	for hop := 0; hop < MaxHops; hop++ {
		seen[hop] = cur
		tbl, ok := p.Tables[cur]
		if !ok {
			return fmt.Errorf("fib: no table for node %d", cur)
		}
		nh, route, ok := tbl.Select(key.Dst, key)
		if !ok {
			return fmt.Errorf("fib: node %d has no route to %v", cur, key.Dst)
		}
		if route.Local {
			visit(cur, route, NextHop{})
			return nil
		}
		if !visit(cur, route, nh) {
			return nil
		}
		if slices.Contains(seen[:hop+1], nh.Node) {
			return fmt.Errorf("fib: forwarding loop at node %d", nh.Node)
		}
		cur = nh.Node
	}
	return fmt.Errorf("fib: hop limit exceeded towards %v", key.Dst)
}

// Trace walks a flow from the ingress router until some router reports the
// destination Local, returning the node path (ingress first, delivering
// router last). It fails on lookup misses, missing tables, and loops.
func (p *Plane) Trace(ingress topo.NodeID, key FlowKey) ([]topo.NodeID, error) {
	path := []topo.NodeID{ingress}
	err := p.WalkTrace(ingress, key, func(_ topo.NodeID, route Route, nh NextHop) bool {
		if !route.Local {
			path = append(path, nh.Node)
		}
		return true
	})
	return path, err
}
