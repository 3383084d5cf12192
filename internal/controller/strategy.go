package controller

import (
	"fmt"
	"slices"
	"strings"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// PlanContext is everything a Strategy may consult when proposing a
// reaction: the topology, the demand model, the lies currently installed,
// the triggering event (with its alarm), the controller's policy knobs,
// and a predicted-utilisation evaluator. The context is immutable:
// strategies read it and never write through it.
type PlanContext struct {
	Topo *topo.Topology
	// Artifacts is the shared memoisation layer for the expensive
	// planner inputs (SPF trees, k-shortest paths, believed-topology
	// compilations, LP solves, load estimates), always bound to Topo
	// (buildPlanContext guarantees it).
	Artifacts *PlanArtifacts
	// Event is what triggered planning; Event.Alarm carries the hot link
	// for raise events.
	Event Event
	// Demands is the current demand model snapshot; Prefixes the sorted
	// prefix names with non-zero demand.
	Demands  []topo.Demand
	Prefixes []string
	// Installed snapshots the live lies per prefix.
	Installed map[string][]fibbing.Lie
	// RaisedAlarms counts links with an active congestion alarm.
	RaisedAlarms int
	// FailedLink and BaseTopo are set for EventLinkDown planning
	// (failover.go): Topo is then the reduced topology (failed link
	// removed, where traffic will physically flow) and BaseTopo the
	// pre-failure one the routers still believe in — failover lies must
	// compile and verify against BaseTopo to take effect before the IGP
	// converges. FailedLink lives in BaseTopo's ID space.
	FailedLink topo.Link
	BaseTopo   *topo.Topology
	// BaseUtil is the predicted max utilisation of the no-op plan:
	// current demands routed over the installed lies.
	BaseUtil float64
	// Policy knobs (resolved, no sentinels).
	WithdrawBelow float64
	// Evaluate predicts the max link utilisation of routing Demands with
	// the installed lies overlaid by the given per-prefix sets: a present
	// key replaces that prefix's installed lies (empty clears them),
	// absent prefixes keep theirs. Evaluate(nil) == BaseUtil.
	Evaluate func(overlay map[string][]fibbing.Lie) (float64, error)
	// ScoreMode selects the planner's scoring order (utilisation or
	// QoE); see the ScoreMode constants.
	ScoreMode ScoreMode
	// QoEModel describes the viewer population (member counts per
	// aggregate, playback model) when QoE scoring is active; zero
	// otherwise. Set by WithQoE.
	QoEModel qoe.Model
	// BaseStall is PredictQoE(nil).Score(): the no-op plan's predicted
	// viewer pain, the baseline for QoE-terms admissibility. Zero when
	// PredictQoE is nil.
	BaseStall float64
	// PredictQoE is Evaluate's QoE sibling: the predicted aggregate
	// viewer experience under the overlaid lies (same overlay semantics).
	// Nil unless WithQoE equipped the context; strategies and scoring
	// must treat nil as "QoE unavailable" and fall back to utilisation.
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
	// to leave. Filled by the Planner before scoring when QoE scoring is
	// active; zero otherwise.
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
	out := make([]string, 0, len(p.Lies))
	for prefix := range p.Lies {
		out = append(out, prefix)
	}
	slices.Sort(out)
	return out
}

// Strategy is one pluggable reaction policy. Propose must be pure: it
// reads the context and returns a candidate plan (nil when the strategy
// has nothing to offer for this event), never touching shared state — the
// artifact cache replays memoised planning inputs, which is only sound
// when the same context always yields the same plan.
type Strategy interface {
	Name() string
	Propose(ctx PlanContext) (*Plan, error)
}

// DefaultStrategies is the stock strategy set, in priority (registration)
// order: local ECMP spreading, the LP-optimal splits, k-shortest-path
// spreading, and lie withdrawal. There is no QoE strategy: under
// ScoreQoE the planner re-ranks these strategies' candidates by
// predicted stall instead.
func DefaultStrategies() []Strategy {
	return []Strategy{LocalECMPStrategy{}, LPOptimalStrategy{}, KSPStrategy{}, WithdrawStrategy{}}
}

// StrategyByName resolves a stock strategy from its name. Matching is
// case-insensitive and ignores '-'/'_', so "localecmp" == "local-ecmp".
func StrategyByName(name string) (Strategy, bool) {
	for _, s := range DefaultStrategies() {
		if normalizeStrategyName(s.Name()) == normalizeStrategyName(name) {
			return s, true
		}
	}
	return nil, false
}

// StrategiesByName resolves a list of stock strategy names. The withdraw
// strategy is appended when absent: it is the lie lifecycle's exit path,
// not a reaction choice, so selecting reaction strategies must not leak
// lies forever.
func StrategiesByName(names []string) ([]Strategy, error) {
	var out []Strategy
	haveWithdraw := false
	for _, name := range names {
		s, ok := StrategyByName(name)
		if !ok {
			return nil, fmt.Errorf("controller: unknown strategy %q (stock: %s)",
				name, strings.Join(StrategyNames(DefaultStrategies()), ", "))
		}
		if _, isW := s.(WithdrawStrategy); isW {
			haveWithdraw = true
		}
		out = append(out, s)
	}
	if len(out) > 0 && !haveWithdraw {
		out = append(out, WithdrawStrategy{})
	}
	return out, nil
}

// ParseStrategies resolves a comma-separated strategy list (the cmd-line
// flag format, e.g. "localecmp,ksp,lpoptimal").
func ParseStrategies(csv string) ([]Strategy, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var names []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			names = append(names, f)
		}
	}
	return StrategiesByName(names)
}

// StrategyNames lists the names of a strategy set.
func StrategyNames(strategies []Strategy) []string {
	out := make([]string, len(strategies))
	for i, s := range strategies {
		out[i] = s.Name()
	}
	return out
}

func normalizeStrategyName(name string) string {
	return strings.Map(func(r rune) rune {
		if r == '-' || r == '_' {
			return -1
		}
		return r
	}, strings.ToLower(name))
}

// --- local-ecmp ---------------------------------------------------------

// LocalECMPStrategy is the demo's first move (Figure 1c's fB): at the hot
// link's head router, add every unused downhill neighbor as an equal-cost
// path, for each prefix with demand.
type LocalECMPStrategy struct{}

// Name implements Strategy.
func (LocalECMPStrategy) Name() string { return "local-ecmp" }

// Propose implements Strategy.
func (s LocalECMPStrategy) Propose(ctx PlanContext) (*Plan, error) {
	if ctx.Event.Kind != EventAlarmRaised || len(ctx.Demands) == 0 {
		return nil, nil
	}
	hot := ctx.Topo.Link(ctx.Event.Alarm.Link).From
	overlay := make(map[string][]fibbing.Lie)
	for _, prefix := range ctx.Prefixes {
		views, err := ctx.Artifacts.Views(prefix, nil)
		if err != nil {
			continue
		}
		lies, ok := localSpreadLies(ctx.Artifacts.eval, ctx.Topo, views, prefix, hot)
		if ok {
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
// the hot router keeps its IGP next hops and adds every unused downhill
// neighbor, evenly. views is the prefix's plain-IGP view set (the caller
// fetches it, memoised, through ctx.Artifacts.Views); ev is the evaluator for
// t. ok is false when no spread exists or it fails to compile/verify.
func localSpreadLies(ev *fibbing.Evaluator, t *topo.Topology, views map[topo.NodeID]fibbing.RouteView, prefix string, hot topo.NodeID) ([]fibbing.Lie, bool) {
	hv, ok := views[hot]
	if !ok || hv.Local || len(hv.NextHops) == 0 {
		return nil, false
	}
	desired := fibbing.NextHopWeights{}
	for nh := range hv.NextHops {
		desired[nh] = 1
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
		if vv.Local || (len(vv.NextHops) > 0 && vv.Dist < hv.Dist) {
			desired[v] = 1
			added = true
		}
	}
	if !added {
		return nil, false
	}
	dag := fibbing.DAG{hot: desired}
	aug, err := ev.AugmentAddPaths(prefix, dag)
	if err != nil {
		return nil, false
	}
	if err := ev.Verify(prefix, aug.Lies, dag); err != nil {
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
	opt, err := ctx.Artifacts.SolveMinMax(ctx.Demands)
	if err != nil {
		return nil, fmt.Errorf("lp-optimal: %w", err)
	}
	overlay := make(map[string][]fibbing.Lie)
	pinned := false
	for _, prefix := range ctx.Prefixes {
		dag, err := fibbing.SplitsToDAG(opt.Splits[prefix], maxDenom)
		if err != nil {
			return nil, fmt.Errorf("lp-optimal: %s: %w", prefix, err)
		}
		// Drop attachment routers from the DAG: their delivery is local.
		p, _ := ctx.Topo.PrefixByName(prefix)
		for _, at := range p.Attachments {
			delete(dag, at.Node)
		}
		aug, wasPinned, err := ctx.Artifacts.CompileDAG(prefix, dag)
		if err != nil {
			return nil, fmt.Errorf("lp-optimal: %s: %w", prefix, err)
		}
		pinned = pinned || wasPinned
		overlay[prefix] = aug.Lies
	}
	util, err := ctx.Evaluate(overlay)
	if err != nil {
		return nil, fmt.Errorf("lp-optimal: %w", err)
	}
	rationale := fmt.Sprintf("θ*=%.3f after %s hit %.0f%%",
		opt.MaxUtilisation, ctx.Event.Alarm.Name, 100*ctx.Event.Alarm.Utilisation)
	if pinned {
		rationale += " (pinned)"
	}
	return &Plan{Strategy: s.Name(), Lies: overlay, PredictedUtil: util, Rationale: rationale}, nil
}

// compileDAG turns a requirement DAG into verified lies: first as pure
// path additions, then — when the requirement removes IGP paths — by
// pinning all constrained routers and reducing the lie set. Every step
// asks the same evaluator, so the steps share their SPF trees.
func compileDAG(ev *fibbing.Evaluator, prefix string, dag fibbing.DAG) (*fibbing.Augmentation, bool, error) {
	aug, err := ev.AugmentAddPaths(prefix, dag)
	pinned := false
	if err != nil {
		aug, err = ev.AugmentPinAll(prefix, dag)
		if err != nil {
			return nil, false, err
		}
		aug, err = ev.ReduceLies(prefix, aug, dag)
		if err != nil {
			return nil, false, err
		}
		pinned = true
	}
	if err := ev.Verify(prefix, aug.Lies, dag); err != nil {
		return nil, false, fmt.Errorf("refusing unverifiable augmentation: %w", err)
	}
	return aug, pinned, nil
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

// --- ksp ----------------------------------------------------------------

// KSPStrategy spreads over up to kspPaths loopless shortest paths (Yen's
// algorithm on spf.KShortest) from the hot link's head router towards
// each prefix's nearest attachment, pinning the detour paths hop by hop.
// Unlike local-ecmp it can recruit *uphill* detours — paths whose first
// hop is further from the destination — which is what rings and other
// low-diversity topologies need; unlike lp-optimal it stays cheap on
// topologies beyond the LP guard.
type KSPStrategy struct{}

// Name implements Strategy.
func (KSPStrategy) Name() string { return "ksp" }

// Propose implements Strategy.
func (s KSPStrategy) Propose(ctx PlanContext) (*Plan, error) {
	if ctx.Event.Kind != EventAlarmRaised || len(ctx.Demands) == 0 {
		return nil, nil
	}
	hot := ctx.Topo.Link(ctx.Event.Alarm.Link).From
	tree := ctx.Artifacts.Tree(hot)

	overlay := make(map[string][]fibbing.Lie)
	pathsUsed := 0
	for _, prefix := range ctx.Prefixes {
		p, ok := ctx.Topo.PrefixByName(prefix)
		if !ok {
			continue
		}
		dst, ok := nearestAttachment(tree, p)
		if !ok || dst == hot {
			continue
		}
		paths := ctx.Artifacts.KShortest(hot, dst, kspPaths)
		if len(paths) < 2 {
			continue // no alternative beyond the IGP path
		}
		// Greedy accumulation: add paths in cost order, keeping each only
		// if the combined DAG still compiles and verifies (a detour that
		// would loop against an already-accepted path is skipped).
		var dag fibbing.DAG
		var aug *fibbing.Augmentation
		accepted := 0
		for _, path := range paths {
			cand := addPathToDAG(dag, path)
			a, _, err := ctx.Artifacts.CompileDAG(prefix, normalizeDAG(cand))
			if err != nil {
				continue
			}
			dag, aug, accepted = cand, a, accepted+1
		}
		if accepted < 2 || aug == nil {
			continue
		}
		overlay[prefix] = aug.Lies
		pathsUsed += accepted
	}
	if len(overlay) == 0 {
		return nil, nil
	}
	util, err := ctx.Evaluate(overlay)
	if err != nil {
		return nil, fmt.Errorf("ksp: %w", err)
	}
	return &Plan{
		Strategy:      s.Name(),
		Lies:          overlay,
		PredictedUtil: util,
		Rationale: fmt.Sprintf("%d loopless paths from %s after %s hit %.0f%%",
			pathsUsed, ctx.Topo.Name(hot), ctx.Event.Alarm.Name, 100*ctx.Event.Alarm.Utilisation),
	}, nil
}

// nearestAttachment picks the prefix attachment closest to the tree's
// source (the hot router).
func nearestAttachment(tree *spf.Tree, p topo.Prefix) (topo.NodeID, bool) {
	best, bestDist := topo.NodeID(0), spf.Infinity
	found := false
	for _, at := range p.Attachments {
		if int(at.Node) >= len(tree.Dist) {
			continue
		}
		if d := tree.Dist[at.Node]; d < bestDist {
			best, bestDist, found = at.Node, d, true
		}
	}
	return best, found
}

// addPathToDAG overlays one path onto a copy of the DAG: every hop gets
// weight proportional to the number of accepted paths crossing it.
func addPathToDAG(dag fibbing.DAG, path []topo.NodeID) fibbing.DAG {
	out := make(fibbing.DAG, len(dag)+len(path))
	for u, nhs := range dag {
		cp := make(fibbing.NextHopWeights, len(nhs))
		for v, w := range nhs {
			cp[v] = w
		}
		out[u] = cp
	}
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		if out[u] == nil {
			out[u] = fibbing.NextHopWeights{}
		}
		out[u][v]++
	}
	return out
}

// normalizeDAG divides each router's weights by their GCD, so shared path
// segments do not inflate the lie count (weight {2} ≡ weight {1}).
func normalizeDAG(dag fibbing.DAG) fibbing.DAG {
	out := make(fibbing.DAG, len(dag))
	for u, nhs := range dag {
		g := 0
		for _, w := range nhs {
			g = gcd(g, w)
		}
		if g <= 1 {
			out[u] = nhs
			continue
		}
		cp := make(fibbing.NextHopWeights, len(nhs))
		for v, w := range nhs {
			cp[v] = w / g
		}
		out[u] = cp
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// --- withdraw -----------------------------------------------------------

// WithdrawStrategy is the lifecycle exit: once every alarm has cleared
// and plain IGP routing would stay below the withdraw threshold for the
// current demands, it proposes clearing every installed lie, returning
// the network to pure IGP routing (as Fibbing prescribes).
type WithdrawStrategy struct{}

// Name implements Strategy.
func (WithdrawStrategy) Name() string { return "withdraw" }

// Propose implements Strategy.
func (s WithdrawStrategy) Propose(ctx PlanContext) (*Plan, error) {
	if ctx.Event.Kind != EventAlarmCleared || ctx.RaisedAlarms > 0 || len(ctx.Installed) == 0 {
		return nil, nil
	}
	if ctx.WithdrawBelow <= 0 {
		return nil, nil // explicit zero: never withdraw
	}
	overlay := make(map[string][]fibbing.Lie, len(ctx.Installed))
	for prefix := range ctx.Installed {
		overlay[prefix] = nil
	}
	util, err := ctx.Evaluate(overlay) // pure IGP routing
	if err != nil {
		return nil, fmt.Errorf("withdraw: %w", err)
	}
	if len(ctx.Demands) > 0 && util > ctx.WithdrawBelow {
		return nil, nil // IGP alone would congest again; keep the lies
	}
	return &Plan{
		Strategy:      s.Name(),
		Lies:          overlay,
		PredictedUtil: util,
		Rationale:     "surge over; network back to pure IGP",
	}, nil
}
