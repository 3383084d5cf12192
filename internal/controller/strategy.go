package controller

import (
	"fmt"
	"maps"
	"slices"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// PlanContext is everything a Strategy may consult when proposing a
// congestion reaction: the topology, the demand model, the lies currently
// installed, the raised alarm that triggered planning, and a
// predicted-utilisation evaluator. The context is immutable: strategies
// read it and never write through it.
type PlanContext struct {
	Topo *topo.Topology
	// Artifacts is the shared memoisation layer for the expensive
	// planner inputs (SPF trees, believed-topology compilations, the
	// stock strategies' compiled lies, load estimates), always bound to
	// Topo (buildPlanContext guarantees it).
	Artifacts *PlanArtifacts
	// Event is what triggered planning: an EventAlarmRaised whose Alarm
	// carries the hot link.
	Event Event
	// Demands is the current demand model snapshot; Prefixes the sorted
	// prefix names with non-zero demand.
	Demands  []topo.Demand
	Prefixes []string
	// Installed snapshots the live lies per prefix.
	Installed map[string][]fibbing.Lie
	// BaseUtil is the predicted max utilisation of the no-op plan:
	// current demands routed over the installed lies.
	BaseUtil float64
	// Evaluate predicts the max link utilisation of routing Demands with
	// the installed lies overlaid by the given per-prefix sets: a present
	// key replaces that prefix's installed lies (empty clears them),
	// absent prefixes keep theirs. Evaluate(nil) == BaseUtil.
	Evaluate func(overlay map[string][]fibbing.Lie) (float64, error)
	// QoEModel describes the viewer population (member counts per
	// aggregate, playback model) when the context has a stall predictor;
	// zero otherwise. Set by WithQoE.
	QoEModel qoe.Model
	// BaseStall is PredictQoE(nil).Score(): the no-op plan's predicted
	// viewer pain, the baseline a plan must beat in Select's stall
	// order. Zero unless WithQoE equipped a saturated context.
	BaseStall float64
	// PredictQoE is Evaluate's QoE sibling: the predicted aggregate
	// viewer experience under the overlaid lies (same overlay semantics).
	// Nil unless WithQoE equipped the context; strategies and scoring
	// must treat nil as "QoE unavailable" and keep the utilisation order.
	PredictQoE func(overlay map[string][]fibbing.Lie) (qoe.PlanQoE, error)
}

// Plan is one strategy's proposed reaction: typed per-prefix lie sets
// plus the prediction that justifies them.
type Plan struct {
	// Strategy is the proposing strategy's Name().
	Strategy string
	// Lies is the desired lie set per prefix. A present key replaces the
	// prefix's installed lies on commit (empty withdraws them all);
	// absent prefixes are untouched.
	Lies map[string][]fibbing.Lie
	// PredictedUtil is Evaluate(Lies): the max utilisation this plan is
	// predicted to leave.
	PredictedUtil float64
	// PredictedStall is PredictQoE(Lies).Score(): the total predicted
	// viewer pain (stall + startup-wait seconds) this plan is predicted
	// to leave. Filled by the Planner before scoring in a stall-order
	// round (see Planner.Select); zero otherwise.
	PredictedStall float64
	// LieCost is the total number of live lies after committing the plan
	// (filled by the Planner before scoring).
	LieCost int
	// Rationale is a human-readable justification for logs and reports.
	Rationale string
}

// TotalLies counts the lies the plan installs across prefixes.
func (p *Plan) TotalLies() int {
	n := 0
	for _, lies := range p.Lies {
		n += len(lies)
	}
	return n
}

// Prefixes returns the sorted prefixes the plan touches.
func (p *Plan) Prefixes() []string {
	return slices.Sorted(maps.Keys(p.Lies))
}

// Strategy is one pluggable congestion reaction. Propose must be pure: it
// reads the context and returns a candidate plan (nil when the strategy
// has nothing to offer for this alarm), never touching shared state — the
// artifact cache replays memoised planning inputs, which is only sound
// when the same context always yields the same plan.
type Strategy interface {
	Name() string
	Propose(ctx PlanContext) (*Plan, error)
}

// DefaultStrategies is the stock strategy set, in priority (registration)
// order: local ECMP spreading and the LP-optimal splits. Withdrawal is
// not a strategy: it is a fixed controller reaction to the last alarm
// clearing, whatever set is configured. There is no QoE strategy: in a
// saturated round where no proposal meets the target the planner ranks
// these strategies' candidates by predicted stall instead, and
// local-ecmp widens its neighbour test to loop-free alternates (see
// LocalECMPStrategy).
func DefaultStrategies() []Strategy {
	return []Strategy{LocalECMPStrategy{}, LPOptimalStrategy{}}
}

// --- local-ecmp ---------------------------------------------------------

// LocalECMPStrategy is the demo's first move (Figure 1c's fB): at the hot
// link's head router S, add unused neighbours as equal-cost paths, for
// each prefix D with demand. It recruits downstream neighbours N,
// dist(N,D) < dist(S,D). In a saturated round with a stall predictor
// where that spread misses the target, it widens to loop-free
// alternates (RFC 5286), dist(N,D) < dist(N,S) + dist(S,D): a one-hop
// uphill detour whose route to D does not come back through S. On a
// skewed crowd such a detour can move the thin sessions off the fat
// crowd's bottleneck, which the stall order rewards. Every downstream
// neighbour is a loop-free alternate, so the widened set contains the
// downstream one.
type LocalECMPStrategy struct{}

// Name implements Strategy.
func (LocalECMPStrategy) Name() string { return "local-ecmp" }

// Propose implements Strategy.
func (s LocalECMPStrategy) Propose(ctx PlanContext) (*Plan, error) {
	if ctx.Event.Kind != EventAlarmRaised || len(ctx.Demands) == 0 {
		return nil, nil
	}
	plan, err := s.spread(ctx, false)
	if err == nil && ctx.PredictQoE != nil && ctx.saturated() && (plan == nil || !meetsTarget(plan.PredictedUtil)) {
		return s.spread(ctx, true)
	}
	return plan, err
}

// spread proposes the spread at the hot router over every prefix with
// demand: downstream neighbours only, or with lfa loop-free alternates
// too.
func (s LocalECMPStrategy) spread(ctx PlanContext, lfa bool) (*Plan, error) {
	hot := ctx.Topo.Link(ctx.Event.Alarm.Link).From
	overlay := make(map[string][]fibbing.Lie)
	for _, prefix := range ctx.Prefixes {
		if lies, ok := ctx.Artifacts.spread(prefix, hot, lfa); ok {
			overlay[prefix] = lies
		}
	}
	if len(overlay) == 0 {
		return nil, nil
	}
	util, err := ctx.Evaluate(overlay)
	if err != nil {
		return nil, fmt.Errorf("local-ecmp: %w", err)
	}
	return &Plan{
		Strategy:      s.Name(),
		Lies:          overlay,
		PredictedUtil: util,
		Rationale: fmt.Sprintf("ECMP at %s after %s hit %.0f%%",
			ctx.Topo.Name(hot), ctx.Event.Alarm.Name, 100*ctx.Event.Alarm.Utilisation),
	}, nil
}

// localSpreadLies builds the local-spreading requirement for one prefix:
// the hot router keeps its IGP next hops and adds every unused downstream
// neighbour (and, with lfa, every loop-free alternate), evenly, then
// compiles and verifies it. It reads only the binding's topology,
// plain-IGP views and evaluator, so PlanArtifacts.spread keeps its
// outcome for the binding's life. The loop-free-alternate test runs one
// SPF per candidate neighbour that is not downstream; the spread memo
// makes that once per binding. ok is false when no spread exists or it
// fails to compile/verify.
func localSpreadLies(a *PlanArtifacts, prefix string, hot topo.NodeID, lfa bool) ([]fibbing.Lie, bool) {
	t := a.topo
	views, err := a.Views(prefix, nil)
	if err != nil {
		return nil, false
	}
	hv, ok := views[hot]
	if !ok || hv.Local || len(hv.NextHops) == 0 {
		return nil, false
	}
	desired := fibbing.NextHopWeights{}
	for nh := range hv.NextHops {
		desired[nh] = 1
	}
	var g *spf.Graph
	var skip func(topo.NodeID) bool
	if lfa {
		g, skip = spf.FromTopology(t), spf.HostSkip(t)
	}
	added := false
	for _, lid := range t.OutLinks(hot) {
		v := t.Link(lid).To
		if t.Node(v).Host || desired[v] > 0 {
			continue
		}
		vv, ok := views[v]
		if !ok {
			continue
		}
		if vv.Local || len(vv.NextHops) > 0 && (vv.Dist < hv.Dist ||
			lfa && vv.Dist < spf.Compute(g, v, skip).Dist[hot]+hv.Dist) {
			desired[v] = 1
			added = true
		}
	}
	if !added {
		return nil, false
	}
	dag := fibbing.DAG{hot: desired}
	aug, err := a.eval.AugmentAddPaths(prefix, dag)
	if err != nil {
		return nil, false
	}
	if err := a.eval.Verify(prefix, aug.Lies, dag); err != nil {
		return nil, false
	}
	return aug.Lies, true
}

// --- lp-optimal ---------------------------------------------------------

// LPOptimalStrategy is the demo's second move (Figure 1d's fA pair):
// solve the min-max utilisation LP over all demands, quantise the splits,
// and realise them with equal-cost lies (or pin-all when the optimum
// removes IGP paths). Above DefaultMaxLPRouters routers the LP's pricing
// rounds would stall the control loop, so the strategy abstains.
type LPOptimalStrategy struct{}

// Name implements Strategy.
func (LPOptimalStrategy) Name() string { return "lp-optimal" }

// Propose implements Strategy.
func (s LPOptimalStrategy) Propose(ctx PlanContext) (*Plan, error) {
	if ctx.Event.Kind != EventAlarmRaised || len(ctx.Demands) == 0 {
		return nil, nil
	}
	if n := routerCount(ctx.Topo); n > DefaultMaxLPRouters {
		return nil, nil // guard: abstain rather than stall
	}
	e := ctx.Artifacts.lpOptimal(ctx.Demands)
	if e.err != nil {
		return nil, fmt.Errorf("lp-optimal: %w", e.err)
	}
	util, err := ctx.Evaluate(e.overlay)
	if err != nil {
		return nil, fmt.Errorf("lp-optimal: %w", err)
	}
	rationale := fmt.Sprintf("θ*=%.3f after %s hit %.0f%%",
		e.opt.MaxUtilisation, ctx.Event.Alarm.Name, 100*ctx.Event.Alarm.Utilisation)
	if e.pinned {
		rationale += " (pinned)"
	}
	return &Plan{Strategy: s.Name(), Lies: maps.Clone(e.overlay), PredictedUtil: util, Rationale: rationale}, nil
}

func routerCount(t *topo.Topology) int {
	n := 0
	for _, node := range t.Nodes() {
		if !node.Host {
			n++
		}
	}
	return n
}
