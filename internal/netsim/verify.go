package netsim

// Verification aid for the aggregate traffic plane: a from-scratch,
// per-flow global max-min solve (the pre-aggregation algorithm, one share
// per flow) compared against the live aggregate allocation. The zoo
// property tests call it after every churn step; it is deliberately naive
// and O(flows x links) — the point is to be an independent oracle. Its
// re-trace is referenceTrace, the classifier the data plane ran before it
// resolved forwarding per route: one fib.Plane.WalkTrace per flow.

import (
	"fmt"
	"math"

	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// VerifyMaxMin recomputes max-min fair rates per flow from scratch and
// compares them with the allocated aggregate rates. rel is the relative
// tolerance: |allocated - reference| <= rel * max(1, |reference|). Flows
// still awaiting their first trace (added at this very instant) are
// skipped — they carry no rate yet by definition.
//
// It also checks the membership index every leave and join keeps: each
// aggregate's weight is its member count, and each member sits in the
// slot it records, pointing back at the aggregate.
//
// When the plane is quiescent (no recompute outstanding), the oracle also
// re-traces every flow from the live tables and requires the aggregate's
// classification to match: a stale path — an invalidation the plane lost
// — fails here even though the fair-share arithmetic over the stale
// incidence would be self-consistent.
func (n *Network) VerifyMaxMin(rel float64) error {
	quiescent := !n.recompute && !n.invalidAll && len(n.invalid) == 0 && len(n.pending) == 0

	type refFlow struct {
		f    *Flow
		cap  float64
		path []topo.LinkID
		rate float64
	}
	type refLink struct {
		capacity float64
		members  []*refFlow
	}
	var active []*refFlow
	links := make(map[topo.LinkID]*refLink)
	for _, a := range n.aggByID {
		if a.weight != len(a.members) {
			return fmt.Errorf("netsim: aggregate %d has weight %d and %d members", a.id, a.weight, len(a.members))
		}
		for slot, f := range a.members {
			if f.agg != a || f.slot != slot {
				return fmt.Errorf("netsim: aggregate %d slot %d holds flow %d, which records aggregate %p slot %d",
					a.id, slot, f.ID, f.agg, f.slot)
			}
			if quiescent {
				if tr := n.referenceTrace(f); !a.sameTrace(tr) {
					return fmt.Errorf("netsim: flow %d classified on a stale trace (blocked=%v nodes=%v, fresh trace blocked=%v nodes=%v)",
						f.ID, a.blocked, a.nodes, tr.blocked, tr.nodes)
				}
			}
			if a.blocked {
				if a.rate != 0 {
					return fmt.Errorf("netsim: blocked flow %d has rate %v", f.ID, a.rate)
				}
				continue
			}
			rf := &refFlow{f: f, cap: f.MaxRate, path: a.capLinks}
			active = append(active, rf)
			for _, lid := range a.capLinks {
				rl := links[lid]
				if rl == nil {
					rl = &refLink{capacity: n.topo.Link(lid).Capacity}
					links[lid] = rl
				}
				rl.members = append(rl.members, rf)
			}
		}
	}

	// Per-flow progressive filling, the seed algorithm verbatim.
	frozen := make(map[*refFlow]bool, len(active))
	for iter := 0; iter <= len(active); iter++ {
		if len(frozen) == len(active) {
			break
		}
		share := math.Inf(1)
		for _, rl := range links {
			remaining := rl.capacity
			cnt := 0
			for _, rf := range rl.members {
				if frozen[rf] {
					remaining -= rf.rate
				} else {
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			if s := remaining / float64(cnt); s < share {
				share = s
			}
		}
		if share < 0 {
			share = 0
		}
		progressed := false
		for _, rf := range active {
			if frozen[rf] {
				continue
			}
			if rf.cap > 0 && rf.cap <= share {
				rf.rate = rf.cap
				frozen[rf] = true
				progressed = true
			}
		}
		if progressed {
			continue
		}
		if math.IsInf(share, 1) {
			for _, rf := range active {
				if frozen[rf] {
					continue
				}
				rf.rate = rf.cap
				if rf.rate == 0 {
					rf.rate = uncappedRate
				}
				frozen[rf] = true
			}
			break
		}
		for _, rl := range links {
			remaining := rl.capacity
			cnt := 0
			for _, rf := range rl.members {
				if frozen[rf] {
					remaining -= rf.rate
				} else {
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			if remaining/float64(cnt) <= share+shareEps(share) {
				for _, rf := range rl.members {
					if !frozen[rf] {
						rf.rate = share
						frozen[rf] = true
					}
				}
			}
		}
	}

	for _, rf := range active {
		got := rf.f.agg.rate
		if diff := math.Abs(got - rf.rate); diff > rel*math.Max(1, math.Abs(rf.rate)) {
			return fmt.Errorf("netsim: flow %d allocated %v, per-flow global solve says %v (diff %v)",
				rf.f.ID, got, rf.rate, diff)
		}
	}
	return nil
}

// referenceTrace classifies one flow against the current tables: the node
// path, the matched prefix per hop, and the link path. The walk itself is
// fib.Plane.WalkTrace — one table lookup and one Select per hop, for every
// flow — and this only adds the link resolution and the network's own
// link-failure state. Any failure (no table, no route, loop, failed link)
// yields the canonical blocked trace. It fills the network's scratch
// trace, valid until the next call, and leaves its path word unset: it
// is the oracle traceFlow is held to, not a classifier rebucket uses.
func (n *Network) referenceTrace(f *Flow) *trace {
	tr := &n.scratch
	tr.reset(false)
	plane := fib.Plane{Tables: n.tables}
	linkOK := true
	err := plane.WalkTrace(f.Ingress, f.Key, func(cur topo.NodeID, route fib.Route, nh fib.NextHop) bool {
		tr.nodes = append(tr.nodes, cur)
		tr.matched = append(tr.matched, route.Prefix)
		if route.Local {
			return true
		}
		l, found := n.topo.FindLink(cur, nh.Node)
		if !found || n.linkDown[l.ID] {
			linkOK = false
			return false
		}
		tr.links = append(tr.links, l.ID)
		if l.Capacity > 0 {
			tr.capLinks = append(tr.capLinks, l.ID)
		}
		return true
	})
	if err != nil || !linkOK {
		tr.reset(true)
	}
	return tr
}
