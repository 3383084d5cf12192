package controller

import (
	"fmt"
	"math"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/topo"
)

const utilEpsilon = 1e-9

// utilEps is the comparison tolerance for a set of utilisation values:
// utilEpsilon scaled by the largest finite magnitude involved (at least
// 1). Utilisations are dimensionless, but on a badly overloaded network
// they legitimately reach orders of magnitude above 1, where an absolute
// 1e-9 would misread evaluator roundoff as a real difference; scoring and
// admissibility must not flip on noise whatever the traffic scale.
func utilEps(vals ...float64) float64 {
	scale := 1.0
	for _, v := range vals {
		if v = math.Abs(v); v > scale && !math.IsInf(v, 0) {
			scale = v
		}
	}
	return utilEpsilon * scale
}

// Planner chooses between competing congestion reactions: the
// registered strategies propose one after another in registration order
// for a raised alarm, the resulting plans are scored, and the best
// admissible plan wins. The scoring order is target-utilisation
// satisfaction first, then lie budget (total live lies after commit),
// then predicted utilisation, then registration order as the
// deterministic tie-break; in a saturated round where no proposal meets
// the target, predicted stall goes first (see Select). Fixed lifecycle
// rules (withdrawal, failover, revert) are controller reactions, not
// strategies.
type Planner struct {
	strategies []Strategy

	// perf accumulates per-strategy telemetry across the planner's life:
	// proposals made, wins, and cumulative Propose wall-time. Proposals
	// and Wins are deterministic for a given event sequence; Nanos is
	// wall-clock and scrubbed from determinism comparisons.
	perf map[string]*StrategyPerf
}

// StrategyPerf is one strategy's cumulative planner telemetry.
type StrategyPerf struct {
	// Proposals counts Propose calls that returned a plan (abstentions
	// and errors are not proposals).
	Proposals int `json:"proposals"`
	// Wins counts proposals that Select picked.
	Wins int `json:"wins"`
	// Nanos is the cumulative Propose wall-time, including abstentions.
	Nanos int64 `json:"nanos"`
}

// NewPlanner builds a planner over the given strategies (registration
// order is the scoring tie-break). With no strategies it uses the stock
// set.
func NewPlanner(strategies ...Strategy) *Planner {
	if len(strategies) == 0 {
		strategies = DefaultStrategies()
	}
	return &Planner{strategies: strategies, perf: make(map[string]*StrategyPerf)}
}

// Perf snapshots the per-strategy telemetry accumulated so far.
func (p *Planner) Perf() map[string]StrategyPerf {
	out := make(map[string]StrategyPerf, len(p.perf))
	for name, sp := range p.perf {
		out[name] = *sp
	}
	return out
}

func (p *Planner) perfFor(name string) *StrategyPerf {
	sp := p.perf[name]
	if sp == nil {
		sp = &StrategyPerf{}
		p.perf[name] = sp
	}
	return sp
}

// ProposeAll asks every registered strategy in registration order and
// returns their plans in that order (strategies that abstain contribute
// nothing). Errors are collected per strategy, never aborting the others.
// It runs on the caller's goroutine, so a panicking strategy unwinds
// through the caller like any other call.
func (p *Planner) ProposeAll(ctx PlanContext) ([]*Plan, []error) {
	var plans []*Plan
	var errs []error
	for _, s := range p.strategies {
		start := time.Now()
		plan, err := s.Propose(ctx)
		elapsed := time.Since(start)
		sp := p.perfFor(s.Name())
		sp.Nanos += elapsed.Nanoseconds()
		if plan != nil && err == nil {
			sp.Proposals++
		}
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("strategy %s: %w", s.Name(), err))
		case plan != nil:
			plans = append(plans, plan)
		}
	}
	return plans, errs
}

// Plan proposes, scores, and returns the winning plan (nil
// when no strategy has an admissible proposal). A plan is admissible only
// if it satisfies the target utilisation or strictly improves on the
// no-op plan — a committed plan never worsens the predicted max
// utilisation.
func (p *Planner) Plan(ctx PlanContext) (*Plan, []error) {
	plans, errs := p.ProposeAll(ctx)
	return p.Select(ctx, plans), errs
}

// Select scores already-proposed plans (in registration order, as
// returned by ProposeAll) and returns the admissible winner, filling
// each plan's LieCost. What-if tools that want both the proposals and
// the verdict call ProposeAll once and Select on the result instead of
// running every strategy twice.
//
// Select has one rule. While some proposal meets the target, or the
// round is not saturated, or the context has no stall predictor, plans
// rank by the utilisation order. In a saturated round where no proposal
// meets the target, routing cannot deliver more than the overloaded
// links carry, so plans rank by predicted stall (filling each plan's
// PredictedStall), with the utilisation order as the tie-break.
func (p *Planner) Select(ctx PlanContext, plans []*Plan) *Plan {
	best, _ := p.rank(ctx, plans)
	return best
}

// rank is Select, also returning the round's stall baseline: the no-op
// plan's predicted stall score, which a plan must beat in the stall
// order. Only a stall-order round predicts it; any other round returns 0.
func (p *Planner) rank(ctx PlanContext, plans []*Plan) (best *Plan, baseStall float64) {
	byStall := stallOrder(ctx, plans)
	if byStall {
		baseStall = predictedStall(ctx, nil)
	}
	for _, plan := range plans {
		plan.LieCost = liveLiesAfter(ctx.Installed, plan)
		if byStall {
			// No stock strategy predicts QoE itself, so this is the
			// overlay's first prediction in a round; it is a memo hit when
			// an earlier round over the same state scored the same overlay.
			plan.PredictedStall = predictedStall(ctx, plan.Lies)
		}
		if !admissible(ctx, plan, byStall, baseStall) {
			continue
		}
		if best == nil || better(plan, best, byStall) {
			best = plan
		}
	}
	if best != nil {
		p.perfFor(best.Strategy).Wins++
	}
	return best, baseStall
}

// stallOrder reports whether a round ranks its plans by predicted
// stall: the context has a stall predictor, the round is saturated and
// no proposal meets the target.
func stallOrder(ctx PlanContext, plans []*Plan) bool {
	if ctx.PredictQoE == nil || !ctx.saturated() {
		return false
	}
	for _, plan := range plans {
		if meetsTarget(plan.PredictedUtil) {
			return false
		}
	}
	return true
}

// admissible gates plans. In the utilisation order a plan must strictly
// improve on the no-op plan, or reach the target without worsening it:
// either way a committed plan never increases the predicted max
// utilisation. In the stall order a plan must strictly improve on the
// no-op plan's predicted stalls (baseStall): viewers may trade a hotter
// link for fewer stalled seconds, never for as many or more. All
// comparisons use the relative utilEps, so the verdict is identical for
// rescaled versions of the same problem.
func admissible(ctx PlanContext, plan *Plan, byStall bool, baseStall float64) bool {
	if byStall {
		return plan.PredictedStall < baseStall-utilEps(plan.PredictedStall, baseStall)
	}
	if plan.PredictedUtil < ctx.BaseUtil-utilEps(plan.PredictedUtil, ctx.BaseUtil) {
		return true
	}
	return meetsTarget(plan.PredictedUtil) &&
		plan.PredictedUtil <= ctx.BaseUtil+utilEps(plan.PredictedUtil, ctx.BaseUtil)
}

// meetsTarget reports whether a predicted utilisation satisfies the
// reaction target, within comparison noise.
func meetsTarget(util float64) bool { return util <= TargetUtil+utilEps(util, TargetUtil) }

// better reports whether a beats b: fewer predicted stalled seconds
// first in the stall order, then the utilisation order (target
// satisfaction, lie cost, predicted utilisation). Strict: on a full tie
// the earlier-registered plan (b) is kept.
func better(a, b *Plan, byStall bool) bool {
	if byStall && stallDiffers(a, b) {
		return a.PredictedStall < b.PredictedStall
	}
	if satA := meetsTarget(a.PredictedUtil); satA != meetsTarget(b.PredictedUtil) {
		return satA
	}
	if a.LieCost != b.LieCost {
		return a.LieCost < b.LieCost
	}
	if math.Abs(a.PredictedUtil-b.PredictedUtil) > utilEps(a.PredictedUtil, b.PredictedUtil) {
		return a.PredictedUtil < b.PredictedUtil
	}
	return false
}

// stallDiffers reports whether two plans' predicted stall scores differ
// beyond comparison noise.
func stallDiffers(a, b *Plan) bool {
	if math.IsInf(a.PredictedStall, 1) || math.IsInf(b.PredictedStall, 1) {
		return a.PredictedStall != b.PredictedStall
	}
	return math.Abs(a.PredictedStall-b.PredictedStall) > utilEps(a.PredictedStall, b.PredictedStall)
}

// liveLiesAfter counts the lies that would be live after committing the
// plan over the installed state.
func liveLiesAfter(installed map[string][]fibbing.Lie, plan *Plan) int {
	n := 0
	for prefix, lies := range installed {
		if _, replaced := plan.Lies[prefix]; !replaced {
			n += len(lies)
		}
	}
	return n + plan.TotalLies()
}

// AnalyticPlanContext builds a PlanContext outside a running simulation —
// for one-shot what-if planning (cmd/fibsim), tests, and benchmarks. The
// installed map may be nil. The Config has no effect: it is kept only
// because bench/ passes it until ROADMAP item 1. The context carries a
// fresh artifact cache, so the strategies of one planning round share
// their SPF and evaluation work; repeat callers who want
// cross-invocation reuse pass a persistent cache to
// AnalyticPlanContextCached instead.
func AnalyticPlanContext(t *topo.Topology, demands []topo.Demand,
	installed map[string][]fibbing.Lie, ev Event, cfg Config) PlanContext {
	return AnalyticPlanContextCached(NewPlanArtifacts(t), t, demands, installed, ev, cfg)
}

// AnalyticPlanContextCached is AnalyticPlanContext with a caller-owned
// artifact cache: successive contexts built over the same cache (same
// topology, unchanged demands/lies) reuse each other's SPF trees and
// plain-IGP views, local-ecmp spreads, lp-optimal's compiled overlays,
// load estimates (with the views they walked) and QoE predictions. The caller owns
// invalidation — pass a fresh or rebound cache whenever topology,
// demands or installed lies change.
func AnalyticPlanContextCached(arts *PlanArtifacts, t *topo.Topology, demands []topo.Demand,
	installed map[string][]fibbing.Lie, ev Event, _ Config) PlanContext {
	return buildPlanContext(arts, t, demands, installed, ev)
}

// buildPlanContext is the single assembly point for PlanContexts: the
// running controller and the analytic what-if path both go through it,
// so the evaluator wiring and base-utilisation semantics cannot diverge.
// It guarantees what every strategy and helper relies on: the context's
// Artifacts is a cache bound to its Topo as it is now (a nil cache, or
// one bound to another topology or to weights since changed, is replaced
// by a fresh one).
func buildPlanContext(arts *PlanArtifacts, t *topo.Topology, demands []topo.Demand,
	installed map[string][]fibbing.Lie, ev Event) PlanContext {
	if arts == nil || !arts.boundTo(t) {
		arts = NewPlanArtifacts(t)
	}
	if installed == nil {
		installed = map[string][]fibbing.Lie{}
	}
	eval := newEvaluator(arts, installed, demands)
	base := 0.0
	if len(demands) > 0 {
		if u, err := eval(nil); err == nil {
			base = u
		} else {
			base = math.Inf(1)
		}
	}
	return PlanContext{
		Topo:      t,
		Artifacts: arts,
		Event:     ev,
		Demands:   demands,
		Prefixes:  prefixNamesOf(demands),
		Installed: installed,
		BaseUtil:  base,
		Evaluate:  eval,
	}
}

// HottestLinkAlarm synthesises the raised alarm fibsim-style what-if
// planning needs: the highest-utilisation capacitated router-router link
// of the given loads.
func HottestLinkAlarm(t *topo.Topology, loads map[topo.LinkID]float64) (monitor.Alarm, bool) {
	var best monitor.Alarm
	found := false
	for _, l := range t.Links() {
		if l.Capacity <= 0 || t.Node(l.From).Host || t.Node(l.To).Host {
			continue
		}
		util := loads[l.ID] / l.Capacity
		if !found || util > best.Utilisation {
			best = monitor.Alarm{
				Link:        l.ID,
				Name:        fmt.Sprintf("%s-%s", t.Name(l.From), t.Name(l.To)),
				Utilisation: util,
				Raised:      true,
			}
			found = true
		}
	}
	return best, found
}

// newEvaluator builds the PlanContext.Evaluate closure: overlay-aware
// fluid routing of demands over installed lies, memoised by arts on the
// merged lie set (per-prefix believed views and whole-set load maps), so
// repeated evaluations of the same overlay — across strategies or across
// planner invocations — cost a lookup.
func newEvaluator(arts *PlanArtifacts, installed map[string][]fibbing.Lie, demands []topo.Demand) func(map[string][]fibbing.Lie) (float64, error) {
	return func(overlay map[string][]fibbing.Lie) (float64, error) {
		return arts.MaxUtil(mergeOverlay(installed, overlay), demands)
	}
}

// mergeOverlay applies Evaluate's overlay semantics: a present key
// replaces that prefix's installed lies (empty clears them), absent
// prefixes keep theirs.
func mergeOverlay(installed, overlay map[string][]fibbing.Lie) map[string][]fibbing.Lie {
	merged := make(map[string][]fibbing.Lie, len(installed)+len(overlay))
	for prefix, lies := range installed {
		merged[prefix] = lies
	}
	for prefix, lies := range overlay {
		if len(lies) == 0 {
			delete(merged, prefix)
			continue
		}
		merged[prefix] = lies
	}
	return merged
}

func prefixNamesOf(demands []topo.Demand) []string {
	seen := make(map[string]bool, len(demands))
	var out []string
	for _, d := range demands {
		if d.Volume <= 0 || seen[d.PrefixName] {
			continue
		}
		seen[d.PrefixName] = true
		out = append(out, d.PrefixName)
	}
	slices.Sort(out)
	return out
}
