package fibbing

import (
	"fmt"
	"maps"
	"slices"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// Augmentation is a computed set of lies realising a requirement, plus
// bookkeeping for the overhead experiments.
type Augmentation struct {
	Prefix string
	Lies   []Lie
	// Strategy records which algorithm produced the lies.
	Strategy string
}

// LieCount returns the number of fake nodes the augmentation injects — the
// control-plane overhead metric the paper compares against RSVP-TE tunnels.
func (a *Augmentation) LieCount() int { return len(a.Lies) }

// AugmentAddPaths computes lies for the demo's use case: routers in the
// DAG keep their current IGP next hops and gain additional (possibly
// duplicated) equal-cost paths. Each lie's cost equals the router's
// current IGP distance, which provably leaves every other router's routing
// unchanged: no distance in the network changes, and deduplicated
// first-hop sets stay identical.
//
// Requirements: for every constrained router, the desired next-hop set
// must include all current IGP next hops (you cannot remove a path with an
// equal-cost lie — use AugmentPinAll for that).
func (e *Evaluator) AugmentAddPaths(prefixName string, dag DAG) (*Augmentation, error) {
	t := e.t
	if err := dag.Validate(t); err != nil {
		return nil, err
	}
	ps, err := e.prefix(prefixName)
	if err != nil {
		return nil, err
	}
	p, igp := ps.p, e.igpView(ps)
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

// AugmentAddPaths is Evaluator.AugmentAddPaths on a fresh evaluator. Like
// the other package-level wrappers it caches nothing across calls, so t
// may be mutated between them; callers compiling several steps against
// one topology should share an Evaluator.
func AugmentAddPaths(t *topo.Topology, prefixName string, dag DAG) (*Augmentation, error) {
	return NewEvaluator(t).AugmentAddPaths(prefixName, dag)
}

// AugmentPinAll realises an arbitrary acyclic forwarding DAG by pinning
// every non-attachment router with cost-0 lies (the paper's "Simple"-style
// global augmentation): a router whose announcements include a cost-0 fake
// prefers it over every real path (all link weights are >= 1) and over
// every remote fake (reaching another router costs >= 1), so each router's
// FIB becomes exactly its lies. Routers not constrained by the DAG are
// pinned to their current IGP next hops, preserving their behaviour.
//
// This realises any loop-free DAG — including ones that remove IGP paths —
// at the price of lying to every router; ReduceLies then shrinks the set.
func (e *Evaluator) AugmentPinAll(prefixName string, dag DAG) (*Augmentation, error) {
	t := e.t
	if err := dag.Validate(t); err != nil {
		return nil, err
	}
	ps, err := e.prefix(prefixName)
	if err != nil {
		return nil, err
	}
	e.init()
	p, igp := ps.p, e.igpView(ps)
	aug := &Augmentation{Prefix: prefixName, Strategy: "pin-all"}
	for _, u := range e.routers {
		if ps.local[u] {
			continue
		}
		nhs, constrained := dag[u]
		if !constrained {
			view := igp[u]
			if len(view.NextHops) == 0 {
				continue // disconnected from the prefix
			}
			nhs = view.NextHops
		}
		norm := normalise(nhs)
		for _, v := range sortedNextHops(norm) {
			for i := 0; i < norm[v]; i++ {
				aug.Lies = append(aug.Lies, Lie{Prefix: p.Prefix, Attach: u, Via: v, Cost: 0})
			}
		}
	}
	// Safety: the realised forwarding must deliver without loops. (The
	// lies need no validation: every Via is a DAG next hop Validate found a
	// link for, or an IGP next hop.)
	if err := CheckDelivery(t, e.evaluate(ps, aug.Lies)); err != nil {
		return nil, fmt.Errorf("fibbing: pin-all would not deliver: %w", err)
	}
	return aug, nil
}

// AugmentPinAll is Evaluator.AugmentPinAll on a fresh evaluator.
func AugmentPinAll(t *topo.Topology, prefixName string, dag DAG) (*Augmentation, error) {
	return NewEvaluator(t).AugmentPinAll(prefixName, dag)
}

// ReduceLies greedily removes lies whose removal keeps the network
// consistent with the requirement (the Merger-style minimisation pass):
// it drops one router's lie group at a time, and keeps the removal when
// every router still routes as it did under the full augmentation — so
// every constrained router still realises its desired split — and the
// network still delivers.
//
// A trial re-derives only the routers the dropped group can move. The
// trial's announcements are a subset of the accepted set's, so a router
// whose best distance none of the group's lies reaches keeps its best
// distance, its tie set and so its route. ReduceLies keeps the accepted
// set's views, patches the routers some dropped lie reaches at exactly
// their best distance, and rolls the patch back when the trial is
// rejected: the lies kept, and their order, are those a full
// re-evaluation per trial keeps.
func (e *Evaluator) ReduceLies(prefixName string, aug *Augmentation, dag DAG) (*Augmentation, error) {
	ps, err := e.checked(prefixName, aug.Lies)
	if err != nil {
		return nil, err
	}
	goal, igp := e.evaluate(ps, aug.Lies), e.igpView(ps)
	current := append([]Lie(nil), aug.Lies...)
	views := maps.Clone(goal) // current's views, patched trial by trial

	// Group lies by attachment router; removal is attempted per group
	// (removing half a router's lies changes its split). minCost is the
	// cheapest lie of each group: the one that reaches every router first.
	minCost := make(map[topo.NodeID]int64)
	for _, l := range current {
		if c, ok := minCost[l.Attach]; !ok || l.Cost < c {
			minCost[l.Attach] = l.Cost
		}
	}
	routers := slices.Sorted(maps.Keys(minCost))

	var (
		trial   []Lie
		targets []target
		undo    []routerView
	)
	for _, u := range routers {
		// Never drop a constrained router's lies wholesale if its IGP
		// routing differs from the requirement; the check below would
		// catch it, but skipping saves evaluations when the requirement
		// is clearly non-default.
		if want, constrained := dag[u]; constrained && !igp[u].NextHops.Equal(want) {
			continue
		}
		trial = appendWithoutGroup(trial[:0], current, u) // a subset of the checked lies
		undo = undo[:0]
		match := true
		if !e.host[u] { // a fake hung off a host reaches no router
			targets = e.targets(ps, trial, targets)
			dropped := target{tree: e.tree(u), cost: minCost[u]}
			for _, r := range e.routers {
				old := views[r]
				if d := dropped.via(r); old.Local || d == spf.Infinity || d != old.Dist {
					continue
				}
				v := route(ps, trial, targets, r)
				undo = append(undo, routerView{r, old})
				views[r] = v
				if !v.NextHops.Equal(goal[r].NextHops) {
					match = false
					break
				}
			}
		}
		if match && CheckDelivery(e.t, views) == nil {
			current, trial = trial, current
			continue
		}
		for _, rv := range undo {
			views[rv.router] = rv.view
		}
	}
	return &Augmentation{
		Prefix:   aug.Prefix,
		Lies:     current,
		Strategy: aug.Strategy + "+reduced",
	}, nil
}

// routerView is one router's view as it was before a trial patched it.
type routerView struct {
	router topo.NodeID
	view   RouteView
}

// ReduceLies is Evaluator.ReduceLies on a fresh evaluator.
func ReduceLies(t *topo.Topology, prefixName string, aug *Augmentation, dag DAG) (*Augmentation, error) {
	return NewEvaluator(t).ReduceLies(prefixName, aug, dag)
}

// appendWithoutGroup appends to dst the lies not attached at u.
func appendWithoutGroup(dst, lies []Lie, u topo.NodeID) []Lie {
	for _, l := range lies {
		if l.Attach != u {
			dst = append(dst, l)
		}
	}
	return dst
}

// Verify checks that a set of lies realises the requirement: every
// constrained router's evaluated next hops equal the desired weights (up
// to scaling), every unconstrained router still matches plain IGP routing,
// and forwarding delivers loop-free.
func (e *Evaluator) Verify(prefixName string, lies []Lie, dag DAG) error {
	t := e.t
	ps, err := e.checked(prefixName, lies)
	if err != nil {
		return err
	}
	views, igp := e.evaluate(ps, lies), e.igpView(ps)
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

// Verify is Evaluator.Verify on a fresh evaluator.
func Verify(t *topo.Topology, prefixName string, lies []Lie, dag DAG) error {
	return NewEvaluator(t).Verify(prefixName, lies, dag)
}

// Compile turns a requirement DAG into verified lies: first as pure path
// additions, then, when the requirement removes IGP paths, by pinning
// every router and reducing the lie set (pinned reports which). Either
// way the lies pass Verify or Compile refuses them. Every step asks the
// same evaluator, so the steps share their SPF trees.
func (e *Evaluator) Compile(prefix string, dag DAG) (aug *Augmentation, pinned bool, err error) {
	aug, err = e.AugmentAddPaths(prefix, dag)
	if err != nil {
		aug, err = e.AugmentPinAll(prefix, dag)
		if err != nil {
			return nil, false, err
		}
		aug, err = e.ReduceLies(prefix, aug, dag)
		if err != nil {
			return nil, false, err
		}
		pinned = true
	}
	if err := e.Verify(prefix, aug.Lies, dag); err != nil {
		return nil, false, fmt.Errorf("refusing unverifiable augmentation: %w", err)
	}
	return aug, pinned, nil
}

func normalise(w NextHopWeights) NextHopWeights {
	g := w.gcd()
	if g <= 1 {
		return w
	}
	out := make(NextHopWeights, len(w))
	for n, v := range w {
		out[n] = v / g
	}
	return out
}

func sortedRouters(d DAG) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(d))
	for u := range d {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

func sortedNextHops(w NextHopWeights) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(w))
	for v := range w {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Fig1DAG returns the paper's Figure 1c/1d requirement on a Fig1 topology:
// B splits evenly over {R2, R3}; A splits 1/3 : 2/3 over {B, R1}.
func Fig1DAG(t *topo.Topology) DAG {
	return DAG{
		t.MustNode(topo.Fig1B): {t.MustNode(topo.Fig1R2): 1, t.MustNode(topo.Fig1R3): 1},
		t.MustNode(topo.Fig1A): {t.MustNode(topo.Fig1B): 1, t.MustNode(topo.Fig1R1): 2},
	}
}
