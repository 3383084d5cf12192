package netsim

// This file is the aggregate plane: the path-class data structures flows
// collapse into, the link<->aggregate incidence index, and the incremental
// weighted max-min solver scoped to the dirty bottleneck-dependency
// components. classify.go holds the forwarding walk that sorts flows into
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
	walk        uint64  // the last reshare walk that reached it
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
	walk     uint64 // the last reshare walk that reached it
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
				// nothing, and reshare walks only from links that
				// carry aggregates.
				delete(n.links, lid)
				delete(n.dirty, lid)
			}
		}
	}
}

// reshare recomputes max-min fair rates where membership changed. Rates
// couple only through shared links, so it solves exactly the
// bottleneck-dependency components of the dirty links: from each dirty
// link, in LinkID order, that no earlier walk has reached, one walk
// gathers the link's connected component of the link<->aggregate
// incidence graph, and solveComponent solves it. Aggregates outside those
// components keep their allocation exactly. A reshare whose walks reached
// every active link counts as full, any other as incremental.
func (n *Network) reshare() {
	if len(n.dirty) == 0 {
		return
	}
	c := &n.comp
	c.roots = c.roots[:0]
	for lid := range n.dirty {
		c.roots = append(c.roots, lid)
	}
	clear(n.dirty)
	slices.Sort(c.roots)
	n.walk++
	reached := 0
	for _, lid := range c.roots {
		if n.links[lid].walk == n.walk {
			continue
		}
		n.gather(lid)
		reached += len(c.links)
		n.solveComponent()
		n.stats.ReshareComponents++
	}
	if reached == len(n.links) {
		n.stats.ReshareFull++
	} else {
		n.stats.ReshareIncremental++
	}
}

// solveLink is one capacitated link materialized for a solve: capacity
// plus its member aggregates in id order.
type solveLink struct {
	capacity float64
	members  []*Aggregate
}

// component is one connected component of the link<->aggregate incidence
// graph, an independent weighted max-min problem, gathered by one walk.
// Aggregates are in id order and links in LinkID order, so the solve
// sums every float in the same order whatever the maps' order. Its
// slices are scratch that every reshare reuses.
type component struct {
	aggs  []*Aggregate
	links []solveLink

	roots   []topo.LinkID // the reshare's dirty links, sorted
	ids     []topo.LinkID // the walk's links, its queue until it ends
	members []*Aggregate  // backing array of links' member lists
	frozen  []bool        // by solveIdx
	nFrozen int
}

func byID(x, y *Aggregate) int { return cmp.Compare(x.id, y.id) }

// gather walks the incidence component of the link root into n.comp,
// marking every link and aggregate it reaches with the current walk
// number.
func (n *Network) gather(root topo.LinkID) {
	c := &n.comp
	c.aggs = c.aggs[:0]
	n.links[root].walk = n.walk
	c.ids = append(c.ids[:0], root)
	total := 0
	for i := 0; i < len(c.ids); i++ {
		ls := n.links[c.ids[i]]
		total += len(ls.aggs)
		for _, a := range ls.aggs {
			if a.walk == n.walk {
				continue
			}
			a.walk = n.walk
			c.aggs = append(c.aggs, a)
			for _, l2 := range a.capLinks {
				if ls2 := n.links[l2]; ls2.walk != n.walk {
					ls2.walk = n.walk
					c.ids = append(c.ids, l2)
				}
			}
		}
	}
	slices.SortFunc(c.aggs, byID)
	slices.Sort(c.ids)
	// Grown up front, the backing array never moves under the member
	// lists already carved from it.
	c.members = slices.Grow(c.members[:0], total)
	c.links = c.links[:0]
	for _, lid := range c.ids {
		ls := n.links[lid]
		lo := len(c.members)
		for _, a := range ls.aggs {
			c.members = append(c.members, a)
		}
		members := c.members[lo:len(c.members):len(c.members)]
		// Headroom sums floats in member order, and float addition does
		// not associate: a map-ordered scan could freeze links
		// differently run to run.
		slices.SortFunc(members, byID)
		c.links = append(c.links, solveLink{capacity: ls.capacity, members: members})
	}
}

// solveComponent solves the component gather left in n.comp with Fill.
// It touches only the component's own aggregates.
func (n *Network) solveComponent() {
	n.ratesStale = true
	c := &n.comp
	for i, a := range c.aggs {
		a.solveIdx = i
	}
	c.frozen = append(c.frozen[:0], make([]bool, len(c.aggs))...)
	c.nFrozen = 0
	Fill(c)
}

// Sharing is a weighted max-min fair-sharing problem as progressive
// filling sees it: capacitated links, indexed from 0, and the traffic
// that crosses them. Each unit of traffic stands for a weight of
// members, and all rising members share one per-member rate until a
// full link or their own cap freezes them. The data plane's components
// are Sharings whose aggregates cross their links whole; the QoE
// predictor's plans are Sharings whose aggregates split over forwarding
// graphs.
type Sharing interface {
	// Links returns the number of links.
	Links() int
	// Headroom returns link k's capacity less the load of its frozen
	// traffic, and the member weight of the rising traffic across it.
	Headroom(k int) (remaining, rising float64)
	// FreezeCapped freezes at its cap every rising aggregate whose cap
	// is positive and at most share, and reports whether any froze.
	FreezeCapped(share float64) bool
	// FreezeLink freezes at share all rising traffic across link k.
	FreezeLink(k int, share float64)
	// Settled reports that no traffic is rising.
	Settled() bool
}

// Fill solves p by progressive filling. The rising members' rate climbs
// to the fair share of the tightest link. Traffic whose cap is at most
// that share freezes at its cap, and the share is taken again;
// otherwise every link that the share fills, in index order, freezes
// its rising traffic there. Filling stops when no traffic rises or no
// rising traffic crosses a link; such traffic without a cap keeps the
// rate it came with.
func Fill(p Sharing) {
	for !p.Settled() {
		// Fair share candidate: the tightest link.
		share := math.Inf(1)
		for k := range p.Links() {
			remaining, w := p.Headroom(k)
			if w == 0 {
				continue
			}
			if s := remaining / w; s < share {
				share = s
			}
		}
		if share < 0 {
			share = 0
		}
		// Application-limited traffic below the share freezes at its cap.
		if p.FreezeCapped(share) {
			continue // shares relax; recompute
		}
		// Freeze the traffic on bottleneck links at the fair share.
		froze := false
		for k := range p.Links() {
			remaining, w := p.Headroom(k)
			if w == 0 {
				continue
			}
			if remaining/w <= share+shareEps(share) {
				p.FreezeLink(k, share)
				froze = true
			}
		}
		if !froze {
			return
		}
	}
}

// The component is the data plane's Sharing: each aggregate crosses
// every link that lists it, whole, and a link's headroom sums its
// members in id order, so equal components give bit-identical rates.

func (c *component) Links() int { return len(c.links) }

func (c *component) Settled() bool { return c.nFrozen == len(c.aggs) }

func (c *component) Headroom(k int) (remaining, rising float64) {
	l := &c.links[k]
	remaining = l.capacity
	unfrozen := 0
	for _, m := range l.members {
		if c.frozen[m.solveIdx] {
			remaining -= m.rate * float64(m.weight)
		} else {
			unfrozen += m.weight
		}
	}
	return remaining, float64(unfrozen)
}

func (c *component) FreezeCapped(share float64) bool {
	progressed := false
	for _, a := range c.aggs {
		if !c.frozen[a.solveIdx] && a.maxRate > 0 && a.maxRate <= share {
			a.rate = a.maxRate
			c.frozen[a.solveIdx] = true
			c.nFrozen++
			progressed = true
		}
	}
	return progressed
}

func (c *component) FreezeLink(k int, share float64) {
	for _, m := range c.links[k].members {
		if !c.frozen[m.solveIdx] {
			m.rate = share
			c.frozen[m.solveIdx] = true
			c.nFrozen++
		}
	}
}
