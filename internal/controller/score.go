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
)

// String returns the flag-format name ("util" or "qoe").
func (m ScoreMode) String() string {
	if m == ScoreQoE {
		return "qoe"
	}
	return "util"
}

// ParseScoreMode resolves the flag-format name, case-insensitively.
// Empty means ScoreUtil.
func ParseScoreMode(s string) (ScoreMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "util", "utilisation", "utilization":
		return ScoreUtil, nil
	case "qoe":
		return ScoreQoE, nil
	}
	return ScoreUtil, fmt.Errorf("controller: unknown score mode %q (want util or qoe)", s)
}

// WithQoE equips a context with the viewer model: it installs the
// memoised stall predictor (the QoE sibling of Evaluate) and the no-op
// plan's baseline score the admissibility restatement compares against.
// Call it after buildPlanContext, before planning; contexts without it
// score on utilisation terms alone.
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
