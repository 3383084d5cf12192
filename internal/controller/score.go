package controller

import (
	"fmt"
	"math"
	"strings"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/topo"
)

// ScoreMode selects what the planner optimises when scoring admissible
// plans. The zero value is the historical behaviour (max utilisation),
// so existing configurations are unchanged.
type ScoreMode int

const (
	// ScoreUtil scores plans on predicted max link utilisation alone
	// (the original planner order: target satisfaction, lie cost,
	// predicted utilisation).
	ScoreUtil ScoreMode = iota
	// ScoreQoE scores plans on predicted viewer pain first: fewer
	// stall-seconds beat a cooler link. Admissibility is restated in QoE
	// terms — a plan may exceed the utilisation target only if its
	// predicted stall-seconds strictly improve on the no-op plan.
	ScoreQoE
	// ScoreBlended keeps utilisation-target satisfaction as the first
	// criterion (as ScoreUtil) but breaks ties on predicted
	// stall-seconds before lie cost.
	ScoreBlended
)

// String returns the flag-format name ("util", "qoe", "blended").
func (m ScoreMode) String() string {
	switch m {
	case ScoreQoE:
		return "qoe"
	case ScoreBlended:
		return "blended"
	default:
		return "util"
	}
}

// ParseScoreMode resolves the flag-format name, case-insensitively.
// Empty means ScoreUtil.
func ParseScoreMode(s string) (ScoreMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "util", "utilisation", "utilization":
		return ScoreUtil, nil
	case "qoe":
		return ScoreQoE, nil
	case "blended", "blend":
		return ScoreBlended, nil
	}
	return ScoreUtil, fmt.Errorf("controller: unknown score mode %q (want util, qoe or blended)", s)
}

// WithQoE equips a context with the viewer model: it installs the
// memoised stall predictor (the QoE sibling of Evaluate) and the no-op
// plan's baseline score the admissibility restatement compares against.
// Call it after buildPlanContext, before planning; contexts without it
// plan exactly as before (qoe-greedy abstains, scoring falls back to
// utilisation terms).
func (ctx PlanContext) WithQoE(model qoe.Model) PlanContext {
	ctx.QoEModel = model
	ctx.PredictQoE, ctx.qoeModelKey = newQoEPredictor(ctx.Artifacts, ctx.Topo, ctx.Installed, ctx.Demands, model)
	if len(ctx.Demands) == 0 {
		return ctx
	}
	if q, err := ctx.PredictQoE(nil); err == nil {
		ctx.BaseStall = q.Score()
	} else {
		ctx.BaseStall = math.Inf(1)
	}
	return ctx
}

// newQoEPredictor builds the PlanContext.PredictQoE closure: the same
// overlay semantics as Evaluate (a present key replaces that prefix's
// installed lies, empty clears them), mapped through the analytic
// delivery model to a plan-level QoE prediction. Memoised on the merged
// lie set when an artifact cache is bound to t; the returned modelKey is
// that cache's encoding of the model (empty without a usable cache).
func newQoEPredictor(arts *PlanArtifacts, t *topo.Topology, installed map[string][]fibbing.Lie,
	demands []topo.Demand, model qoe.Model) (func(map[string][]fibbing.Lie) (qoe.PlanQoE, error), string) {
	if arts != nil && arts.topo != t {
		arts = nil // bound elsewhere; compute directly
	}
	var modelKey string
	if arts != nil {
		// The model never changes within one planning context: encode its
		// part of the memo key once instead of on every candidate lookup.
		var sb strings.Builder
		encodeModel(&sb, model)
		modelKey = sb.String()
	}
	predict := func(overlay map[string][]fibbing.Lie) (qoe.PlanQoE, error) {
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
		if arts != nil {
			return arts.predictQoEKeyed(modelKey, merged, demands, model)
		}
		ev := fibbing.NewEvaluator(t)
		views := make(map[string]map[topo.NodeID]fibbing.RouteView)
		for _, d := range demands {
			if _, ok := views[d.PrefixName]; ok {
				continue
			}
			v, err := ev.Evaluate(d.PrefixName, merged[d.PrefixName])
			if err != nil {
				return qoe.PlanQoE{}, err
			}
			views[d.PrefixName] = v
		}
		return qoe.PredictPlan(t, views, demands, model)
	}
	return predict, modelKey
}
