package fibbing

import (
	"fmt"
	"maps"
	"slices"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// RouteView is the analytically computed forwarding behaviour of one
// router for one prefix.
type RouteView struct {
	// Local marks the prefix's attachment router(s).
	Local bool
	// Dist is the router's distance to the prefix (through lies if they
	// win), spf.Infinity if unreachable.
	Dist int64
	// NextHops is the weighted ECMP next-hop set.
	NextHops NextHopWeights
}

// Evaluate is Evaluator.Evaluate on a fresh evaluator: nothing is cached
// across calls, so t may be mutated between them.
func Evaluate(t *topo.Topology, prefixName string, lies []Lie) (map[topo.NodeID]RouteView, error) {
	return NewEvaluator(t).Evaluate(prefixName, lies)
}

// IGPView computes the plain-IGP routes for a prefix (no lies).
func IGPView(t *topo.Topology, prefixName string) (map[topo.NodeID]RouteView, error) {
	return NewEvaluator(t).IGPView(prefixName)
}

// CheckDelivery verifies that the forwarding graph induced by views is
// loop-free and that every router with a route eventually reaches a Local
// router: the safety property Verify checks before every commit, and the
// scenario tests' oracle on the routers' installed FIBs. Routers and next
// hops are walked in NodeID order, so an error always names the same
// router. The views' routers and next hops must be nodes of t.
func CheckDelivery(t *topo.Topology, views map[topo.NodeID]RouteView) error {
	const (
		grey  = 1 // on stack
		black = 2 // proven to deliver
	)
	state := make([]uint8, t.NumNodes()) // by NodeID, 0 while unvisited
	var visit func(u topo.NodeID) error
	visit = func(u topo.NodeID) error {
		v, ok := views[u]
		if !ok {
			return fmt.Errorf("fibbing: traffic forwarded to %s which has no route", t.Name(u))
		}
		if v.Local {
			return nil
		}
		switch state[u] {
		case grey:
			return fmt.Errorf("fibbing: forwarding loop through %s", t.Name(u))
		case black:
			return nil
		}
		if len(v.NextHops) == 0 {
			return fmt.Errorf("fibbing: %s has no next hops and is not local", t.Name(u))
		}
		state[u] = grey
		var buf [16]topo.NodeID // no allocation up to 16 next hops
		nhs := slices.AppendSeq(buf[:0], maps.Keys(v.NextHops))
		slices.Sort(nhs)
		for _, nh := range nhs {
			if err := visit(nh); err != nil {
				return err
			}
		}
		state[u] = black
		return nil
	}
	for u := range topo.NodeID(t.NumNodes()) {
		v, ok := views[u]
		if !ok || v.Dist == spf.Infinity && !v.Local {
			continue // unreachable routers carry no traffic
		}
		if err := visit(u); err != nil {
			return err
		}
	}
	return nil
}
