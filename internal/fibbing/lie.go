// Package fibbing implements the paper's contribution: computing the fake
// nodes ("lies") a Fibbing controller injects into a link-state IGP so the
// routers' ECMP machinery realises an arbitrary per-destination forwarding
// DAG — including uneven splitting ratios obtained by injecting duplicate
// equal-cost fake next hops.
//
// The package is pure control-plane logic: it reasons about a topology and
// produces lies. Turning lies into flooded LSAs is the southbound's job;
// an analytic evaluator (Evaluator, and the package-level Evaluate on top
// of it) mirrors the routers' route computation so augmentations can be
// verified before touching the network.
//
// # What-if evaluation is a lookup, not a Dijkstra per router
//
// A lie is a leaf: one fake node hung off its Attach router by one edge of
// weight Cost, with no edge out. No path can pass through it, so no lie
// set changes a distance between two real nodes. Two consequences carry
// the whole evaluator:
//
//   - a router u reaches the lie at dist(u -> Attach) + Cost, and reaches
//     a real attachment a at dist(u -> a) + a's cost: every distance a
//     route computation needs is a distance to a real node, whatever the
//     lies;
//   - u's first hops on its shortest paths towards a real node d are the
//     neighbours v with weight(u, v) + dist(v -> d) = dist(u -> d) — the
//     predecessors of u in the shortest-path tree rooted at d over the
//     transposed graph.
//
// So one reverse tree per destination (spf.Compute over Graph.Reverse with
// the usual host-skip rule) answers "how far is every router from d, and
// through which neighbours" for all routers at once. An Evaluator builds
// those trees lazily, one per destination actually asked about (prefix
// attachments and lie attach routers), keeps them, and answers
// Evaluate(prefix, lies) with a scan: per router, the minimum over the
// announcements, the union of the tied announcements' first hops, and the
// router's own tied fakes added on top as extra RIB paths — the same
// semantics internal/ospf implements, which the integration tests check
// against a running IGP and evaluator_test.go checks against the retained
// per-router-Dijkstra reference.
//
// Cost model, with R routers, A attachments, L lies and D distinct
// destinations among them: a cold question costs D Dijkstras plus the
// scan; a warm one costs the O(R x (A + L)) scan and allocates only the
// views it returns. A pinned compile (AugmentPinAll, ReduceLies, Verify)
// lies at every router and tries one removal per router, so it used to
// cost about R Dijkstras per trial x R trials; over one Evaluator it
// costs at most R Dijkstras in total. A ReduceLies trial does not rescan
// every router either: it keeps the accepted set's views and re-derives
// only the routers the dropped group reaches at exactly their best
// distance, so it costs an O(R) test plus the scan of those routers. The
// plain-IGP view is computed once per (evaluator, prefix) and shared by
// every compile step.
//
// Snapshot contract: an Evaluator is bound to one topology as it was at
// first use and is valid until that topology is mutated (SetWeight is the
// only mutation there is). It does not detect mutation. The package-level
// functions (Evaluate, IGPView, AugmentAddPaths, AugmentPinAll,
// ReduceLies, Verify) build a fresh Evaluator per call and so never
// cache: code that mutates weights between calls (te's weight search)
// uses those; code that asks many questions about one topology (the
// planner, through controller.PlanArtifacts) shares an Evaluator.
package fibbing

import (
	"fmt"
	"net/netip"

	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/topo"
)

// Lie is one fake node: attached to Attach, announcing Prefix at total
// cost Cost (as seen from Attach), resolving to physical next hop Via.
type Lie struct {
	Prefix netip.Prefix
	// Attach is the router the fake node hangs off; only this router's
	// FIB resolves the fake node to a physical next hop.
	Attach topo.NodeID
	// Via is the physical neighbor of Attach that receives the traffic
	// (the forwarding address of the fake announcement).
	Via topo.NodeID
	// Cost is the total cost of the path through the fake node as seen
	// by Attach. Equal to the router's current IGP distance it adds an
	// equal-cost path; lower, it overrides the IGP path.
	Cost int64
}

func (l Lie) String() string {
	return fmt.Sprintf("lie{%v @%d via %d cost %d}", l.Prefix, l.Attach, l.Via, l.Cost)
}

// ToLSA converts the lie to its protocol representation. lsid must be
// unique per live lie within the advertising controller; seq orders
// re-originations.
func (l Lie) ToLSA(adv ospf.RouterID, lsid, seq uint32) *ospf.LSA {
	// Decomposition: the fake link carries the whole cost, the fake
	// node's announcement is free. Any split summing to Cost behaves
	// identically; this one keeps Metric=0 so the LSA mirrors the
	// paper's "fake node announcing the prefix" picture.
	return &ospf.LSA{
		Header:     ospf.Header{Type: ospf.TypeFake, AdvRouter: adv, LSID: lsid, Seq: seq},
		Prefix:     l.Prefix,
		Metric:     0,
		AttachedTo: ospf.NodeRouterID(l.Attach),
		AttachCost: uint32(l.Cost),
		ForwardVia: ospf.NodeRouterID(l.Via),
	}
}

// NextHopWeights is a desired (or computed) weighted next-hop set for one
// router: next-hop node -> number of equal-cost RIB paths.
type NextHopWeights map[topo.NodeID]int

// Total returns the sum of the weights.
func (w NextHopWeights) Total() int {
	total := 0
	for _, v := range w {
		total += v
	}
	return total
}

// Equal compares two weighted sets after normalising by their GCD, so
// {B:1,R1:2} equals {B:2,R1:4} (identical split behaviour).
func (w NextHopWeights) Equal(other NextHopWeights) bool {
	if len(w) != len(other) {
		return false
	}
	gw, go_ := w.gcd(), other.gcd()
	if gw == 0 || go_ == 0 {
		return len(w) == 0 && len(other) == 0
	}
	for n, v := range w {
		ov, ok := other[n]
		if !ok || v/gw != ov/go_ {
			return false
		}
	}
	return true
}

func (w NextHopWeights) gcd() int {
	g := 0
	for _, v := range w {
		g = gcd(g, v)
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// DAG is a desired per-destination forwarding DAG: the routers whose
// forwarding behaviour the controller constrains, each with its weighted
// next hops. Routers absent from the map keep their IGP routing.
type DAG map[topo.NodeID]NextHopWeights

// Validate checks structural sanity against a topology: every next hop is
// a direct neighbor, weights are positive, and the DAG (combined with IGP
// defaults for unconstrained routers) will be checked for loops by Verify.
func (d DAG) Validate(t *topo.Topology) error {
	for u, nhs := range d {
		if t.Node(u).Host {
			return fmt.Errorf("fibbing: DAG constrains host %s", t.Name(u))
		}
		if len(nhs) == 0 {
			return fmt.Errorf("fibbing: DAG entry for %s has no next hops", t.Name(u))
		}
		for v, w := range nhs {
			if w < 1 {
				return fmt.Errorf("fibbing: weight %d for %s->%s", w, t.Name(u), t.Name(v))
			}
			if _, ok := t.FindLink(u, v); !ok {
				return fmt.Errorf("fibbing: %s->%s is not a link", t.Name(u), t.Name(v))
			}
		}
	}
	return nil
}
