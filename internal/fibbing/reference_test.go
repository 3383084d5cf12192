package fibbing

// The per-router-Dijkstra implementation the Evaluator replaced, kept
// verbatim as the oracle: ReferenceEvaluate builds the augmented graph
// (one leaf node per lie) and runs one forward SPF per router, and the
// Reference* compilers are the augmentation algorithms as they ran on top
// of it, IGP sweeps included; ReferenceReduceLies re-evaluates the whole
// network on every trial removal. The names are exported so the external
// test package (compile_equiv_test.go) can reach them; the file is
// test-only.

import (
	"fmt"
	"slices"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

func ReferenceEvaluate(t *topo.Topology, prefixName string, lies []Lie) (map[topo.NodeID]RouteView, error) {
	p, ok := t.PrefixByName(prefixName)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefixName)
	}
	for _, l := range lies {
		if l.Prefix != p.Prefix {
			return nil, fmt.Errorf("fibbing: lie %v targets a different prefix than %v", l, p.Prefix)
		}
		if _, ok := t.FindLink(l.Attach, l.Via); !ok {
			return nil, fmt.Errorf("fibbing: lie %v forwards via a non-neighbor", l)
		}
		if l.Cost < 0 {
			return nil, fmt.Errorf("fibbing: lie %v has negative cost", l)
		}
	}

	// Augmented graph: real topology plus one leaf node per lie.
	g := spf.FromTopology(t)
	lieNode := make(map[topo.NodeID]Lie, len(lies)) // graph node -> lie
	for _, l := range lies {
		idx := g.AddNode()
		g.AddEdge(l.Attach, spf.Edge{To: idx, Weight: l.Cost, Link: topo.NoLink})
		lieNode[idx] = l
	}
	attached := make(map[topo.NodeID]int64, len(p.Attachments))
	for _, a := range p.Attachments {
		attached[a.Node] = a.Cost
	}

	out := make(map[topo.NodeID]RouteView, t.NumNodes())
	for _, n := range t.Nodes() {
		if n.Host {
			continue
		}
		u := n.ID
		if _, ok := attached[u]; ok {
			out[u] = RouteView{Local: true, NextHops: NextHopWeights{}}
			continue
		}
		tree := spf.ComputeRouters(g, t, u)

		best := spf.Infinity
		for a, cost := range attached {
			if tree.Reachable(a) && tree.Dist[a]+cost < best {
				best = tree.Dist[a] + cost
			}
		}
		for idx := range lieNode {
			if tree.Reachable(idx) && tree.Dist[idx] < best {
				best = tree.Dist[idx]
			}
		}
		view := RouteView{Dist: best, NextHops: NextHopWeights{}}
		if best == spf.Infinity {
			out[u] = view
			continue
		}
		set := make(map[topo.NodeID]bool)
		for a, cost := range attached {
			if !tree.Reachable(a) || tree.Dist[a]+cost != best {
				continue
			}
			for _, nh := range tree.NextHops(a) {
				set[nh.Node] = true
			}
		}
		for idx, l := range lieNode {
			if !tree.Reachable(idx) || tree.Dist[idx] != best {
				continue
			}
			if l.Attach == u {
				// Own fake: one extra RIB path to its forwarding
				// address (additive — the Fibbing trick).
				view.NextHops[l.Via]++
				continue
			}
			for _, nh := range tree.NextHops(idx) {
				if _, isLie := lieNode[nh.Node]; isLie {
					// First hop is a fake node: only possible when
					// u == attach, handled above.
					continue
				}
				set[nh.Node] = true
			}
		}
		for v := range set {
			view.NextHops[v]++
		}
		out[u] = view
	}
	return out, nil
}

func ReferenceIGPView(t *topo.Topology, prefixName string) (map[topo.NodeID]RouteView, error) {
	return ReferenceEvaluate(t, prefixName, nil)
}

func ReferenceAugmentAddPaths(t *topo.Topology, prefixName string, dag DAG) (*Augmentation, error) {
	if err := dag.Validate(t); err != nil {
		return nil, err
	}
	p, ok := t.PrefixByName(prefixName)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefixName)
	}
	igp, err := ReferenceIGPView(t, prefixName)
	if err != nil {
		return nil, err
	}
	aug := &Augmentation{Prefix: prefixName, Strategy: "add-paths"}
	for _, u := range sortedRouters(dag) {
		desired := dag[u]
		view, ok := igp[u]
		if !ok || view.Local {
			return nil, fmt.Errorf("fibbing: cannot constrain attachment router %s", t.Name(u))
		}
		if view.NextHops.Equal(desired) {
			continue // already satisfied
		}
		// Scale check: desired must cover the IGP next hops.
		for nh := range view.NextHops {
			if desired[nh] == 0 {
				return nil, fmt.Errorf(
					"fibbing: add-paths cannot remove %s's IGP next hop %s (use pin-all)",
					t.Name(u), t.Name(nh))
			}
		}
		// The IGP contributes weight 1 per existing next hop; lies make
		// up the difference. Normalise to the smallest equivalent
		// weights first so we do not inject more fakes than needed.
		norm := normalise(desired)
		for _, v := range sortedNextHops(norm) {
			w := norm[v]
			need := w
			if view.NextHops[v] > 0 {
				need = w - 1 // the real path supplies one RIB entry
			}
			for i := 0; i < need; i++ {
				aug.Lies = append(aug.Lies, Lie{
					Prefix: p.Prefix, Attach: u, Via: v, Cost: view.Dist,
				})
			}
		}
	}
	return aug, nil
}

func ReferenceAugmentPinAll(t *topo.Topology, prefixName string, dag DAG) (*Augmentation, error) {
	if err := dag.Validate(t); err != nil {
		return nil, err
	}
	p, ok := t.PrefixByName(prefixName)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefixName)
	}
	igp, err := ReferenceIGPView(t, prefixName)
	if err != nil {
		return nil, err
	}
	attached := make(map[topo.NodeID]bool, len(p.Attachments))
	for _, a := range p.Attachments {
		attached[a.Node] = true
	}
	aug := &Augmentation{Prefix: prefixName, Strategy: "pin-all"}
	for _, n := range t.Nodes() {
		if n.Host || attached[n.ID] {
			continue
		}
		u := n.ID
		nhs, constrained := dag[u]
		if !constrained {
			view := igp[u]
			if len(view.NextHops) == 0 {
				continue // disconnected from the prefix
			}
			nhs = view.NextHops
		}
		if constrained {
			if _, self := dag[u][u]; self {
				return nil, fmt.Errorf("fibbing: %s lists itself as next hop", t.Name(u))
			}
		}
		norm := normalise(nhs)
		for _, v := range sortedNextHops(norm) {
			for i := 0; i < norm[v]; i++ {
				aug.Lies = append(aug.Lies, Lie{Prefix: p.Prefix, Attach: u, Via: v, Cost: 0})
			}
		}
	}
	// Safety: the realised forwarding must deliver without loops.
	views, err := ReferenceEvaluate(t, prefixName, aug.Lies)
	if err != nil {
		return nil, err
	}
	if err := CheckDelivery(t, views); err != nil {
		return nil, fmt.Errorf("fibbing: pin-all would not deliver: %w", err)
	}
	return aug, nil
}

func ReferenceReduceLies(t *topo.Topology, prefixName string, aug *Augmentation, dag DAG) (*Augmentation, error) {
	target, err := ReferenceEvaluate(t, prefixName, aug.Lies)
	if err != nil {
		return nil, err
	}
	current := append([]Lie(nil), aug.Lies...)

	// Group lies by attachment router; removal is attempted per group
	// (removing half a router's lies changes its split).
	groups := make(map[topo.NodeID][]Lie)
	for _, l := range current {
		groups[l.Attach] = append(groups[l.Attach], l)
	}
	routers := make([]topo.NodeID, 0, len(groups))
	for u := range groups {
		routers = append(routers, u)
	}
	slices.Sort(routers)

	for _, u := range routers {
		if _, constrained := dag[u]; constrained {
			// Never drop a constrained router's lies wholesale if its
			// IGP routing differs from the requirement; the check
			// below would catch it, but skipping saves evaluations
			// when the requirement is clearly non-default.
			igp, err := ReferenceIGPView(t, prefixName)
			if err != nil {
				return nil, err
			}
			if !igp[u].NextHops.Equal(dag[u]) {
				continue
			}
		}
		trial := withoutGroup(current, u)
		views, err := ReferenceEvaluate(t, prefixName, trial)
		if err != nil {
			return nil, err
		}
		if viewsMatch(views, target) && CheckDelivery(t, views) == nil {
			current = trial
		}
	}
	return &Augmentation{
		Prefix:   aug.Prefix,
		Lies:     current,
		Strategy: aug.Strategy + "+reduced",
	}, nil
}

func withoutGroup(lies []Lie, u topo.NodeID) []Lie {
	out := make([]Lie, 0, len(lies))
	for _, l := range lies {
		if l.Attach != u {
			out = append(out, l)
		}
	}
	return out
}

func viewsMatch(got, want map[topo.NodeID]RouteView) bool {
	if len(got) != len(want) {
		return false
	}
	for u, w := range want {
		g, ok := got[u]
		if !ok || g.Local != w.Local {
			return false
		}
		if !g.NextHops.Equal(w.NextHops) {
			return false
		}
	}
	return true
}

func ReferenceVerify(t *topo.Topology, prefixName string, lies []Lie, dag DAG) error {
	views, err := ReferenceEvaluate(t, prefixName, lies)
	if err != nil {
		return err
	}
	igp, err := ReferenceIGPView(t, prefixName)
	if err != nil {
		return err
	}
	for u, want := range dag {
		got, ok := views[u]
		if !ok {
			return fmt.Errorf("fibbing: no route computed for %s", t.Name(u))
		}
		if !got.NextHops.Equal(want) {
			return fmt.Errorf("fibbing: %s realises %v, want %v", t.Name(u), got.NextHops, want)
		}
	}
	for u, ref := range igp {
		if _, constrained := dag[u]; constrained {
			continue
		}
		got := views[u]
		if got.Local != ref.Local || !got.NextHops.Equal(ref.NextHops) {
			return fmt.Errorf("fibbing: lie leaked: %s moved from %v to %v",
				t.Name(u), ref.NextHops, got.NextHops)
		}
	}
	return CheckDelivery(t, views)
}

// ReferenceCompile is Evaluator.Compile on the reference path: add-paths
// first, pin-all + reduction when the requirement removes IGP paths, then
// the verification sweep.
func ReferenceCompile(t *topo.Topology, prefix string, dag DAG) (*Augmentation, bool, error) {
	aug, err := ReferenceAugmentAddPaths(t, prefix, dag)
	pinned := false
	if err != nil {
		aug, err = ReferenceAugmentPinAll(t, prefix, dag)
		if err != nil {
			return nil, false, err
		}
		aug, err = ReferenceReduceLies(t, prefix, aug, dag)
		if err != nil {
			return nil, false, err
		}
		pinned = true
	}
	if err := ReferenceVerify(t, prefix, aug.Lies, dag); err != nil {
		return nil, false, fmt.Errorf("refusing unverifiable augmentation: %w", err)
	}
	return aug, pinned, nil
}
