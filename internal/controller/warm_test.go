package controller_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// matrixProblem is one planning question on a matrix topology: a seeded
// demand draw, the alarm on the link plain IGP routing loads most, and
// the viewers behind the demands for QoE scoring.
type matrixProblem struct {
	name    string
	tp      *topo.Topology
	demands []topo.Demand
	ev      controller.Event
	model   qoe.Model
}

func (p matrixProblem) context(arts *controller.PlanArtifacts, mode controller.ScoreMode) controller.PlanContext {
	ctx := controller.AnalyticPlanContextCached(arts, p.tp, p.demands, nil, p.ev, controller.Config{ScoreMode: mode})
	if mode == controller.ScoreQoE {
		ctx = ctx.WithQoE(p.model)
	}
	return ctx
}

// matrixProblems draws two demand sets on every matrix topology. With
// ghost set, each draw also carries a demand for a prefix the topology
// does not have, which every LP solve rejects.
func matrixProblems(t *testing.T, ghost bool) [][]matrixProblem {
	t.Helper()
	var out [][]matrixProblem
	for _, ts := range scenarios.MatrixTopologies() {
		tp, prefix, err := ts.Build()
		if err != nil {
			t.Fatal(err)
		}
		var draws []matrixProblem
		for seed := int64(1); seed <= 2; seed++ {
			demands := topo.RandomDemands(tp, 3, 4e6, 14e6, seed)
			loads, err := te.IGPLoads(tp, demands)
			if err != nil {
				t.Fatalf("%s: %v", ts.Family, err)
			}
			alarm, ok := controller.HottestLinkAlarm(tp, loads)
			if !ok {
				t.Fatalf("%s: no capacitated link", ts.Family)
			}
			members := map[topo.NodeID]int{}
			for i, d := range demands {
				members[d.Ingress] += 10 + 30*i
			}
			if ghost {
				demands = append(demands, topo.Demand{Ingress: demands[0].Ingress, PrefixName: "ghost", Volume: 1e6})
			}
			draws = append(draws, matrixProblem{
				name:    fmt.Sprintf("%s/%d", ts.Family, seed),
				tp:      tp,
				demands: demands,
				ev:      controller.AlarmEvent(alarm),
				model:   qoe.Model{Members: map[string]map[topo.NodeID]int{prefix: members}, Horizon: qoe.DefaultHorizon},
			})
		}
		out = append(out, draws)
	}
	return out
}

var scoreModes = []controller.ScoreMode{controller.ScoreUtil, controller.ScoreQoE}

// TestWarmReplanMakesNoMisses: the alarm train the controller sees when
// an alarm keeps firing on unchanged state asks one question again and
// again. Over one artifact cache the second plan must be lookups only —
// no routing and no QoE miss — and must return the first plan's winner,
// lies and predictions to the bit.
func TestWarmReplanMakesNoMisses(t *testing.T) {
	wins := map[string]int{}
	for _, draws := range matrixProblems(t, false) {
		for _, p := range draws {
			for _, mode := range scoreModes {
				arts := controller.NewPlanArtifacts(p.tp)
				planner := controller.NewPlanner()
				first, errs := planner.Plan(p.context(arts, mode))
				if len(errs) > 0 {
					t.Fatalf("%s mode %v: %v", p.name, mode, errs)
				}
				cold := arts.Stats()
				again, errs := planner.Plan(p.context(arts, mode))
				if len(errs) > 0 {
					t.Fatalf("%s mode %v re-plan: %v", p.name, mode, errs)
				}
				warm := arts.Stats()
				if warm.Misses != cold.Misses || warm.QoEMisses != cold.QoEMisses {
					t.Fatalf("%s mode %v: the re-plan missed: %+v after the first plan, %+v after the second", p.name, mode, cold, warm)
				}
				if warm.Hits == cold.Hits {
					t.Fatalf("%s mode %v: the re-plan made no lookup", p.name, mode)
				}
				if (first == nil) != (again == nil) {
					t.Fatalf("%s mode %v: plan %v, re-plan %v", p.name, mode, first, again)
				}
				if first == nil {
					continue
				}
				if again.Strategy != first.Strategy || !reflect.DeepEqual(again.Lies, first.Lies) ||
					math.Float64bits(again.PredictedUtil) != math.Float64bits(first.PredictedUtil) ||
					math.Float64bits(again.PredictedStall) != math.Float64bits(first.PredictedStall) {
					t.Fatalf("%s mode %v: re-plan differs:\n first %s %v util %x stall %x\n again %s %v util %x stall %x",
						p.name, mode, first.Strategy, first.Lies, math.Float64bits(first.PredictedUtil), math.Float64bits(first.PredictedStall),
						again.Strategy, again.Lies, math.Float64bits(again.PredictedUtil), math.Float64bits(again.PredictedStall))
				}
				wins[first.Strategy]++
			}
		}
	}
	if wins["local-ecmp"] == 0 || wins["lp-optimal"] == 0 {
		t.Fatalf("both memoised strategies must win somewhere; wins %v", wins)
	}
}

// refLocalECMP is local-ecmp as it was before its spread was memoised:
// the plain-IGP views, the SPF trees and the add-paths compile and
// Verify, all computed afresh on every proposal.
type refLocalECMP struct{}

func (refLocalECMP) Name() string { return "local-ecmp" }

func (s refLocalECMP) Propose(ctx controller.PlanContext) (*controller.Plan, error) {
	if ctx.Event.Kind != controller.EventAlarmRaised || len(ctx.Demands) == 0 {
		return nil, nil
	}
	hot := ctx.Topo.Link(ctx.Event.Alarm.Link).From
	ev := fibbing.NewEvaluator(ctx.Topo)
	overlay := make(map[string][]fibbing.Lie)
	for _, prefix := range ctx.Prefixes {
		views, err := ev.Evaluate(prefix, nil)
		if err != nil {
			continue
		}
		lies, ok := refLocalSpreadLies(ctx, ev, views, prefix, hot)
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
	return &controller.Plan{
		Strategy:      s.Name(),
		Lies:          overlay,
		PredictedUtil: util,
		Rationale: fmt.Sprintf("ECMP at %s after %s hit %.0f%%",
			ctx.Topo.Name(hot), ctx.Event.Alarm.Name, 100*ctx.Event.Alarm.Utilisation),
	}, nil
}

func refLocalSpreadLies(ctx controller.PlanContext, ev *fibbing.Evaluator, views map[topo.NodeID]fibbing.RouteView, prefix string, hot topo.NodeID) ([]fibbing.Lie, bool) {
	t := ctx.Topo
	lfa := ctx.ScoreMode == controller.ScoreQoE && ctx.PredictQoE != nil
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
		if vv.Local || len(vv.NextHops) > 0 && (vv.Dist < hv.Dist ||
			lfa && vv.Dist < spf.Compute(spf.FromTopology(t), v, spf.HostSkip(t)).Dist[hot]+hv.Dist) {
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

// refLPOptimal is lp-optimal as it was before its overlay was memoised:
// the LP solve, then Requirement and Compile per prefix, all computed
// afresh on every proposal.
type refLPOptimal struct{}

func (refLPOptimal) Name() string { return "lp-optimal" }

func (s refLPOptimal) Propose(ctx controller.PlanContext) (*controller.Plan, error) {
	if ctx.Event.Kind != controller.EventAlarmRaised || len(ctx.Demands) == 0 {
		return nil, nil
	}
	routers := 0
	for _, n := range ctx.Topo.Nodes() {
		if !n.Host {
			routers++
		}
	}
	if routers > controller.DefaultMaxLPRouters {
		return nil, nil
	}
	opt, err := te.SolveMinMax(ctx.Topo, ctx.Demands)
	if err != nil {
		return nil, fmt.Errorf("lp-optimal: %w", err)
	}
	ev := fibbing.NewEvaluator(ctx.Topo)
	overlay := make(map[string][]fibbing.Lie)
	pinned := false
	for _, prefix := range ctx.Prefixes {
		dag, err := fibbing.Requirement(ctx.Topo, prefix, opt.Splits[prefix])
		if err != nil {
			return nil, fmt.Errorf("lp-optimal: %s: %w", prefix, err)
		}
		aug, wasPinned, err := ev.Compile(prefix, dag)
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
	return &controller.Plan{Strategy: s.Name(), Lies: overlay, PredictedUtil: util, Rationale: rationale}, nil
}

// TestMemoisedStrategiesMatchReferences holds the memoised local-ecmp
// and lp-optimal to their uncached references: every proposal (lies,
// prediction, rationale, "(pinned)" included) and every error text, and
// the winner the planner picks from them. Each topology keeps one
// artifact cache across both demand draws and both score modes, so a
// spread memoised under one demand set answers for the next; a second
// pass adds a demand no LP can route, for the error path.
func TestMemoisedStrategiesMatchReferences(t *testing.T) {
	stock := []controller.Strategy{controller.LocalECMPStrategy{}, controller.LPOptimalStrategy{}}
	refs := []controller.Strategy{refLocalECMP{}, refLPOptimal{}}
	proposals, pinned, failed := map[string]int{}, 0, 0
	for _, ghost := range []bool{false, true} {
		for _, draws := range matrixProblems(t, ghost) {
			arts := controller.NewPlanArtifacts(draws[0].tp)
			for _, p := range draws {
				for _, mode := range scoreModes {
					ctx := p.context(arts, mode)
					refCtx := p.context(controller.NewPlanArtifacts(p.tp), mode)
					for i, s := range stock {
						got, gotErr := s.Propose(ctx)
						want, wantErr := refs[i].Propose(refCtx)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s mode %v %s: error %v, reference %v", p.name, mode, s.Name(), gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s mode %v %s:\n got  %+v\n want %+v", p.name, mode, s.Name(), got, want)
						}
						switch {
						case gotErr != nil:
							failed++
						case got != nil:
							proposals[s.Name()]++
							if got.Strategy == "lp-optimal" && strings.HasSuffix(got.Rationale, " (pinned)") {
								pinned++
							}
						}
					}
					got, _ := controller.NewPlanner().Plan(ctx)
					want, _ := controller.NewPlanner(refLocalECMP{}, refLPOptimal{}).Plan(refCtx)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s mode %v: winner\n got  %+v\n want %+v", p.name, mode, got, want)
					}
				}
			}
		}
	}
	if proposals["local-ecmp"] == 0 || proposals["lp-optimal"] == 0 || pinned == 0 || failed == 0 {
		t.Fatalf("weak coverage: proposals %v, %d pinned, %d errors", proposals, pinned, failed)
	}
	t.Logf("proposals %v, %d pinned, %d errors", proposals, pinned, failed)
}
