package netsim

// This file is the aggregate plane: the path-class data structures flows
// collapse into, the link<->aggregate incidence index, and the incremental
// weighted max-min solver scoped to the dirty bottleneck-dependency
// component. classify.go holds the forwarding walk that sorts flows into
// aggregates.

import (
	"cmp"
	"math"
	"net/netip"
	"slices"

	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// uncappedRate is the sentinel rate of a greedy flow crossing no
// capacitated link (clamped "infinite" bandwidth: 1 Tbit/s).
const uncappedRate = 1e12

// shareSlack is the relative tolerance for declaring a link a bottleneck
// during progressive filling; shareEps turns it into the slack for a
// given fair share. Relative, because shares range from bit/s to
// 100 Gbit/s and the float noise that the slack absorbs is proportional
// to the share's magnitude. The solver and the VerifyMaxMin oracle must
// use the same slack, or they would freeze links in different rounds.
const shareSlack = 1e-9

func shareEps(share float64) float64 {
	if share > 1 {
		return shareSlack * share
	}
	return shareSlack
}

// trace is an aggregate's forwarding identity: the node path, the FIB
// prefix matched at every hop (the "FIB key class" — two flows with equal
// matches react identically to any route delta at aggregate granularity),
// and the link path split into all links (for counters) and capacitated
// links (for fair sharing). A blocked trace has empty slices. Hop j is
// the router nodes[j]: it matched matched[j] and, unless it is the last
// (delivering) hop, forwarded over links[j] to nodes[j+1].
type trace struct {
	blocked  bool
	nodes    []topo.NodeID
	matched  []netip.Prefix
	links    []topo.LinkID
	capLinks []topo.LinkID
	// path folds the hop words of nodes and matched, in hop order: the
	// trace's share of the aggregate signature, built during the walk (0
	// when blocked).
	path uint64
}

// allHops is the touched-hop set "every hop": one bit per router the
// forwarding walk can consult.
const allHops uint64 = 1<<fib.MaxHops - 1

// reset empties the trace for refilling, keeping its slices' arrays.
func (tr *trace) reset(blocked bool) {
	*tr = trace{blocked: blocked, nodes: tr.nodes[:0], matched: tr.matched[:0], links: tr.links[:0], capLinks: tr.capLinks[:0]}
}

// clone copies a trace out of the scratch for an aggregate to keep.
func (tr *trace) clone() trace {
	return trace{blocked: tr.blocked, nodes: slices.Clone(tr.nodes), matched: slices.Clone(tr.matched),
		links: slices.Clone(tr.links), capLinks: slices.Clone(tr.capLinks), path: tr.path}
}

// Aggregate is one path-class of identical flows: same ingress, same rate
// cap, same path, same per-hop FIB matches. All members are allocated the
// same per-flow rate by max-min fairness, so the aggregate carries one
// rate and one weight (the member count) instead of per-flow state.
type Aggregate struct {
	id      int64
	sig     uint64
	ingress topo.NodeID
	maxRate float64
	trace

	// weight is len(members), kept beside it for the solver's inner
	// loops; members[f.slot] == f for every member f.
	weight  int
	members []*Flow

	// touched is the set of hops (bit j = hop j) at which an invalidation
	// since the last recompute can have changed a member's forwarding;
	// non-zero exactly while the aggregate is queued in Network.invalid.
	touched uint64

	rate        float64 // per-member allocated rate, bit/s
	perFlowBits float64 // integrated per-member delivered volume, bits
	solveIdx    int     // scratch index of the current solve
}

// Weight returns the member count.
func (a *Aggregate) Weight() int { return a.weight }

// Rate returns the per-member allocated rate in bit/s.
func (a *Aggregate) Rate() float64 { return a.rate }

// uses reports whether the aggregate's path crosses the link.
func (a *Aggregate) uses(link topo.LinkID) bool {
	if link == topo.NoLink {
		return false
	}
	return slices.Contains(a.links, link)
}

// touchedBy returns the hops at which a diff at the given router can have
// re-pathed this aggregate: the router's own, when it is on the path and
// some changed prefix is nested with the prefix the aggregate matched
// there. Two prefixes that both cover a member's destination are
// necessarily nested, so a changed prefix that does not overlap the match
// leaves every member's lookup at that hop as it was — conservative
// invalidation, exact member check. A blocked aggregate has no recorded
// path: any change may open one, so it answers with every hop.
func (a *Aggregate) touchedBy(node topo.NodeID, d *fib.Diff) uint64 {
	if a.blocked {
		return allHops
	}
	for i, v := range a.nodes {
		if v != node {
			continue
		}
		for _, c := range d.Changes {
			if c.Prefix.Overlaps(a.matched[i]) {
				return 1 << i
			}
		}
		return 0
	}
	return 0
}

// sameTrace reports whether a freshly computed trace matches the
// aggregate's identity (ingress and cap are the member's own and need no
// comparison).
func (a *Aggregate) sameTrace(tr *trace) bool {
	if a.blocked != tr.blocked || len(a.nodes) != len(tr.nodes) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != tr.nodes[i] || a.matched[i] != tr.matched[i] {
			return false
		}
	}
	return true
}

// linkState is one capacitated link's side of the incidence index.
type linkState struct {
	capacity float64
	aggs     map[int64]*Aggregate
}

func (n *Network) linkFor(lid topo.LinkID) *linkState {
	ls := n.links[lid]
	if ls == nil {
		ls = &linkState{capacity: n.topo.Link(lid).Capacity, aggs: make(map[int64]*Aggregate)}
		n.links[lid] = ls
	}
	return ls
}

// rebucket joins a flow to the aggregate matching the trace, creating it
// (around its own copy of the trace) if absent.
func (n *Network) rebucket(f *Flow, tr *trace) {
	sig := tr.sigOf(f.Ingress, f.MaxRate)
	for _, a := range n.aggs[sig] {
		if a.ingress == f.Ingress && a.maxRate == f.MaxRate && a.sameTrace(tr) {
			n.join(f, a)
			return
		}
	}
	a := &Aggregate{
		id:      n.nextAgg,
		sig:     sig,
		ingress: f.Ingress,
		maxRate: f.MaxRate,
		trace:   tr.clone(),
	}
	n.nextAgg++
	n.aggs[sig] = append(n.aggs[sig], a)
	n.aggByID[a.id] = a
	switch {
	case a.blocked:
		a.rate = 0
	case len(a.capLinks) == 0:
		// No capacitated link constrains it: the rate is decided here,
		// outside the solver.
		a.rate = a.maxRate
		if a.rate == 0 {
			a.rate = uncappedRate
		}
	}
	for _, lid := range a.capLinks {
		n.linkFor(lid).aggs[a.id] = a
	}
	n.join(f, a)
}

// join adds a member and dirties the aggregate's capacitated links (its
// fair share changes with its weight).
func (n *Network) join(f *Flow, a *Aggregate) {
	f.agg = a
	f.joinRef = a.perFlowBits
	f.slot = len(a.members)
	a.members = append(a.members, f)
	a.weight++
	n.ratesStale = true
	n.markDirty(a)
}

// leave removes a member, folding its delivered volume into the flow, and
// drops the aggregate when it empties. The aggregate's last member takes
// the leaver's slot.
func (n *Network) leave(f *Flow) {
	a := f.agg
	f.carried += a.perFlowBits - f.joinRef
	f.agg = nil
	end := len(a.members) - 1
	last := a.members[end]
	a.members[f.slot], last.slot = last, f.slot
	a.members[end] = nil
	a.members = a.members[:end]
	a.weight--
	n.ratesStale = true
	n.markDirty(a)
	if a.weight == 0 {
		n.dropAgg(a)
	}
}

func (n *Network) markDirty(a *Aggregate) {
	for _, lid := range a.capLinks {
		n.dirty[lid] = true
	}
}

func (n *Network) dropAgg(a *Aggregate) {
	chain := n.aggs[a.sig]
	for i, c := range chain {
		if c == a {
			n.aggs[a.sig] = slices.Delete(chain, i, i+1)
			break
		}
	}
	if len(n.aggs[a.sig]) == 0 {
		delete(n.aggs, a.sig)
	}
	delete(n.aggByID, a.id)
	delete(n.invalid, a.id)
	for _, lid := range a.capLinks {
		if ls := n.links[lid]; ls != nil {
			delete(ls.aggs, a.id)
			if len(ls.aggs) == 0 {
				// The link leaves the incidence graph; drop its dirty
				// mark too — a sole occupant's departure couples to
				// nothing, and a stale mark would inflate the
				// >50%-dirty fallback's numerator against a shrunken
				// denominator.
				delete(n.links, lid)
				delete(n.dirty, lid)
			}
		}
	}
}

// reshare recomputes max-min fair rates. When only a bounded set of links
// changed membership, the solve is scoped to the bottleneck-dependency
// component: the connected component of the link<->aggregate incidence
// graph reachable from the dirty links. Rates couple only through shared
// links, so aggregates outside the closure keep their allocation exactly.
// A full solve handles the rest (>50% of active links dirty, SetTable).
func (n *Network) reshare() {
	// Fallback denominator: links currently carrying aggregates. When
	// most of the active incidence graph is dirty, the closure would
	// re-solve nearly everything anyway, and counting that as
	// "incremental" would defeat the telemetry's point.
	if n.dirtyAll || 2*len(n.dirty) > len(n.links) {
		n.dirtyAll = false
		clear(n.dirty)
		n.solveAll()
		n.stats.ReshareFull++
		return
	}
	if len(n.dirty) == 0 {
		return
	}
	// Close the dirty links over the incidence component.
	linkSeen := make(map[topo.LinkID]bool, len(n.dirty))
	var queue, compLinks []topo.LinkID
	for lid := range n.dirty {
		if n.links[lid] != nil {
			linkSeen[lid] = true
			queue = append(queue, lid)
		}
	}
	clear(n.dirty)
	aggSeen := make(map[int64]bool)
	var compAggs []*Aggregate
	for len(queue) > 0 {
		lid := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		compLinks = append(compLinks, lid)
		for _, a := range n.links[lid].aggs {
			if aggSeen[a.id] {
				continue
			}
			aggSeen[a.id] = true
			compAggs = append(compAggs, a)
			for _, l2 := range a.capLinks {
				if !linkSeen[l2] {
					linkSeen[l2] = true
					queue = append(queue, l2)
				}
			}
		}
	}
	if len(compAggs) == 0 {
		return // departed aggregates left empty links behind
	}
	n.solve(compAggs, compLinks)
	n.stats.ReshareIncremental++
}

// solveAll runs the solver over every aggregate: blocked ones get zero,
// unconstrained ones their cap (or the greedy sentinel), the rest the
// global progressive filling.
func (n *Network) solveAll() {
	n.ratesStale = true
	var aggs []*Aggregate
	for _, a := range n.aggByID {
		switch {
		case a.blocked:
			a.rate = 0
		case len(a.capLinks) == 0:
			a.rate = a.maxRate
			if a.rate == 0 {
				a.rate = uncappedRate
			}
		default:
			aggs = append(aggs, a)
		}
	}
	links := make([]topo.LinkID, 0, len(n.links))
	for lid := range n.links {
		links = append(links, lid)
	}
	n.solve(aggs, links)
}

// solveLink is one capacitated link materialized for a solve: capacity
// plus its member aggregates in id order.
type solveLink struct {
	capacity float64
	members  []*Aggregate
}

// component is one connected component of the link<->aggregate incidence
// graph: an independent weighted max-min problem. Aggregates and links are
// in id order, so the per-component solve is deterministic.
type component struct {
	aggs  []*Aggregate
	links []solveLink
}

// solve partitions the scope into connected components of the
// link<->aggregate incidence graph and solves each independently, in
// min-aggregate-id order. Rates couple only through shared links, and the
// max-min allocation is unique, so the partitioned solve equals the
// combined solve exactly — and a reshare costs the components it touches,
// not the whole scope's freeze rounds.
//
// Every aggregate incident to a scope link must be in aggs (guaranteed by
// component closure), so allocations outside the scope are untouched. An
// aggregate of weight w behaves exactly like w identical per-flow shares:
// the solution equals the per-flow global solve restricted to the scope.
func (n *Network) solve(aggs []*Aggregate, linkIDs []topo.LinkID) {
	slices.SortFunc(aggs, func(x, y *Aggregate) int { return cmp.Compare(x.id, y.id) })
	slices.Sort(linkIDs)
	for i, a := range aggs {
		a.solveIdx = i
	}
	// Union-find over scratch indices: each link unions its members. The
	// final partition is iteration-order independent, so building it from
	// map-ordered member sets stays deterministic.
	parent := make([]int, len(aggs))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	links := make([]solveLink, 0, len(linkIDs))
	for _, lid := range linkIDs {
		ls := n.links[lid]
		if ls == nil || len(ls.aggs) == 0 {
			continue
		}
		members := make([]*Aggregate, 0, len(ls.aggs))
		for _, a := range ls.aggs {
			members = append(members, a)
		}
		// Members stay map-ordered here; solveComponent sorts them.
		links = append(links, solveLink{capacity: ls.capacity, members: members})
		root := find(members[0].solveIdx)
		for _, m := range members[1:] {
			parent[find(m.solveIdx)] = root
		}
	}
	// Group into components, ordered by smallest aggregate id. Scanning
	// aggs in id order makes both the component order and each component's
	// internal order deterministic.
	slot := make([]int, len(aggs)) // root index -> component index + 1
	var comps []*component
	for _, a := range aggs {
		r := find(a.solveIdx)
		ci := slot[r]
		if ci == 0 {
			comps = append(comps, &component{})
			ci = len(comps)
			slot[r] = ci
		}
		comps[ci-1].aggs = append(comps[ci-1].aggs, a)
	}
	for _, l := range links {
		c := comps[slot[find(l.members[0].solveIdx)]-1]
		c.links = append(c.links, l)
	}
	n.stats.ReshareComponents += uint64(len(comps))
	for _, c := range comps {
		n.solveComponent(c)
	}
}

// solveComponent runs weighted max-min progressive filling over one
// component. It touches only the component's own aggregates and
// materialized links.
func (n *Network) solveComponent(comp *component) {
	aggs, links := comp.aggs, comp.links
	n.ratesStale = true
	for i, a := range aggs {
		a.solveIdx = i
	}
	// Deterministic member order per link: headroom sums floats in member
	// order, and float addition does not associate — an unsorted
	// (map-ordered) scan could freeze links differently run to run.
	for _, l := range links {
		slices.SortFunc(l.members, func(x, y *Aggregate) int { return cmp.Compare(x.id, y.id) })
	}
	frozen := make([]bool, len(aggs)) // indexed bitset, one allocation per solve
	nFrozen := 0
	headroom := func(l solveLink) (remaining float64, unfrozen int) {
		remaining = l.capacity
		for _, m := range l.members {
			if frozen[m.solveIdx] {
				remaining -= m.rate * float64(m.weight)
			} else {
				unfrozen += m.weight
			}
		}
		return remaining, unfrozen
	}
	for iter := 0; iter <= len(aggs); iter++ {
		if nFrozen == len(aggs) {
			break
		}
		// Fair share candidate: the tightest link.
		share := math.Inf(1)
		for _, l := range links {
			remaining, w := headroom(l)
			if w == 0 {
				continue
			}
			if s := remaining / float64(w); s < share {
				share = s
			}
		}
		if share < 0 {
			share = 0
		}
		// Application-limited aggregates below the share freeze at their cap.
		progressed := false
		for _, a := range aggs {
			if frozen[a.solveIdx] {
				continue
			}
			if a.maxRate > 0 && a.maxRate <= share {
				a.rate = a.maxRate
				frozen[a.solveIdx] = true
				nFrozen++
				progressed = true
			}
		}
		if progressed {
			continue // shares relax; recompute
		}
		if math.IsInf(share, 1) {
			for _, a := range aggs {
				if frozen[a.solveIdx] {
					continue
				}
				a.rate = a.maxRate
				if a.rate == 0 {
					a.rate = uncappedRate
				}
				frozen[a.solveIdx] = true
				nFrozen++
			}
			break
		}
		// Freeze aggregates on bottleneck links at the fair share.
		for _, l := range links {
			remaining, w := headroom(l)
			if w == 0 {
				continue
			}
			if remaining/float64(w) <= share+shareEps(share) {
				for _, m := range l.members {
					if !frozen[m.solveIdx] {
						m.rate = share
						frozen[m.solveIdx] = true
						nFrozen++
					}
				}
			}
		}
	}
}
