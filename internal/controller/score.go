package controller

import (
	"math"
	"strings"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
)

// ScoreMode has no effect: the planner has one selection rule (see
// Planner.Select).
//
// Deprecated: no effect. Kept only because bench/ reads it until ROADMAP item 1.
type ScoreMode int

// Deprecated: no effect. Kept only because bench/ reads them until ROADMAP item 1.
const (
	ScoreUtil ScoreMode = iota
	ScoreQoE
)

// Config has no effect.
//
// Deprecated: no effect. Kept only because bench/ reads it until ROADMAP item 1.
type Config struct {
	// Deprecated: no effect. Kept only because bench/ reads it until ROADMAP item 1.
	ScoreMode ScoreMode
}

// saturated reports whether the no-op plan overloads a link. Once a
// link is over capacity, routing cannot raise what is delivered there:
// the choice left is which viewers lose out, which is what the stall
// predictor judges. It is the one test of that regime: planOn, WithQoE,
// Select's stall order and local-ecmp's loop-free alternates all read
// it.
func (ctx PlanContext) saturated() bool { return ctx.BaseUtil > 1 }

// WithQoE equips a context with the viewer model: it installs the
// memoised stall predictor (the QoE sibling of Evaluate) and, in a
// saturated context, the no-op plan's stall score that Select's stall
// order compares against. An unsaturated context never ranks by stall,
// so it predicts nothing. Call it after buildPlanContext, before
// planning.
func (ctx PlanContext) WithQoE(model qoe.Model) PlanContext {
	ctx.QoEModel = model
	// The model never changes within one planning context: encode its
	// part of the memo keys once instead of on every candidate lookup.
	var sb strings.Builder
	encodeModel(&sb, model)
	// PredictQoE has Evaluate's overlay semantics, mapped through the
	// analytic delivery model to a plan-level QoE prediction and memoised
	// on the merged lie set.
	arts, installed, demands, modelKey := ctx.Artifacts, ctx.Installed, ctx.Demands, sb.String()
	ctx.PredictQoE = func(overlay map[string][]fibbing.Lie) (qoe.PlanQoE, error) {
		return arts.predictQoEKeyed(modelKey, mergeOverlay(installed, overlay), demands, model)
	}
	if len(ctx.Demands) == 0 || !ctx.saturated() {
		return ctx
	}
	ctx.BaseStall = predictedStall(ctx, nil)
	return ctx
}

// predictedStall is the stall score PredictQoE gives an overlay, +Inf
// when the prediction fails.
func predictedStall(ctx PlanContext, overlay map[string][]fibbing.Lie) float64 {
	if q, err := ctx.PredictQoE(overlay); err == nil {
		return q.Score()
	}
	return math.Inf(1)
}
