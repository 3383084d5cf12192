package controller

import (
	"fmt"
	"math"
	"strings"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
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
	// The model never changes within one planning context: encode its
	// part of the memo keys once instead of on every candidate lookup.
	var sb strings.Builder
	encodeModel(&sb, model)
	ctx.qoeModelKey = sb.String()
	// PredictQoE has Evaluate's overlay semantics, mapped through the
	// analytic delivery model to a plan-level QoE prediction and memoised
	// on the merged lie set.
	arts, installed, demands, modelKey := ctx.Artifacts, ctx.Installed, ctx.Demands, ctx.qoeModelKey
	ctx.PredictQoE = func(overlay map[string][]fibbing.Lie) (qoe.PlanQoE, error) {
		return arts.predictQoEKeyed(modelKey, mergeOverlay(installed, overlay), demands, model)
	}
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
