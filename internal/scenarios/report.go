package scenarios

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/controller"
)

// WaveDelivery accounts one wave's delivered volume against its demand.
type WaveDelivery struct {
	At        time.Duration `json:"at"`
	Flows     int           `json:"flows"`
	Expected  float64       `json:"expected_mbit"`
	Delivered float64       `json:"delivered_mbit"`
	Fraction  float64       `json:"fraction"`
}

// Report is the machine-checkable outcome of one scenario run.
type Report struct {
	Scenario   string        `json:"scenario"`
	Controller bool          `json:"controller"`
	Duration   time.Duration `json:"duration"`
	// TargetPrefix is the destination prefix the workload aims at (and
	// the only prefix lies may touch).
	TargetPrefix string `json:"target_prefix"`
	// ScoreMode echoes Spec.ScoreMode unparsed.
	//
	// Deprecated: no effect. Kept only because bench/ reads it until ROADMAP item 1.
	ScoreMode string `json:"score_mode,omitempty"`

	// Utilisation. The fluid data plane caps link rates at capacity, so
	// 1.0 means saturated (flows starve), not overloaded.
	PeakUtilisation    float64 `json:"peak_utilisation"`
	SettledUtilisation float64 `json:"settled_utilisation"` // max sample in the settle window
	FinalUtilisation   float64 `json:"final_utilisation"`
	// LPOptimum is θ* of the min-max LP for the demand set snapshotted at
	// the settle start: the best any routing could do.
	LPOptimum float64 `json:"lp_optimum"`
	// AnalyticUtilisation routes the settled demands over the final
	// routing state (IGP plus installed lies) with the fluid evaluator:
	// unlike the measured figures it is not capped at 1.0 and carries no
	// per-flow hash noise, so it is what the LP-optimality invariant
	// checks.
	AnalyticUtilisation float64 `json:"analytic_utilisation"`

	// Video QoE.
	Sessions         int     `json:"sessions"`
	SmoothSessions   int     `json:"smooth_sessions"`
	StallSeconds     float64 `json:"stall_seconds"`
	LateStallSeconds float64 `json:"late_stall_seconds"` // stalls accrued inside the settle window
	MeanRebuffer     float64 `json:"mean_rebuffer"`
	// PredictedStallSeconds is the analytic QoE predictor's stall
	// estimate for the settled demands routed over the final routing
	// state — the figure a saturated planning round ranks by, reported
	// for every run. 0 when no demand settled.
	PredictedStallSeconds float64 `json:"predicted_stall_seconds,omitempty"`

	// Delivery.
	DeliveredMbit float64        `json:"delivered_mbit"`
	Waves         []WaveDelivery `json:"waves"`

	// Controller activity.
	Lies         int            `json:"lies"`
	LiesByPrefix map[string]int `json:"lies_by_prefix,omitempty"`
	// StrategyPerf is the planner's per-strategy telemetry: proposals,
	// wins, and cumulative Propose wall-time. Nanos is real time, so the
	// determinism harness scrubs it alongside the pool telemetry before
	// comparing.
	StrategyPerf map[string]controller.StrategyPerf `json:"strategy_perf,omitempty"`
	// Reactions records the controller's reactions; the decisions, the
	// controller errors and the planner's counts are its projections.
	Decisions       []controller.Decision `json:"decisions,omitempty"`
	Reactions       []controller.Reaction `json:"reactions,omitempty"`
	FirstHotAt      time.Duration         `json:"first_hot_at"`      // first sample >= alarm threshold; -1 if never
	FirstReactionAt time.Duration         `json:"first_reaction_at"` // first decision; -1 if none
	ReactionLatency time.Duration         `json:"reaction_latency"`  // FirstReactionAt - FirstHotAt; -1 if n/a

	// Simulation cost telemetry: scheduler events executed, the SPF
	// strategy split, and the reshare strategy split, so scaling runs
	// (fiblab -scale) can show where the time goes and whether the
	// control- and data-plane delta pipelines carried the load.
	Events             uint64 `json:"events,omitempty"`
	SPFIncrementalRuns uint64 `json:"spf_incremental_runs,omitempty"`
	SPFFullRuns        uint64 `json:"spf_full_runs,omitempty"`
	// ReshareFull counts reshares whose walks reached every active link
	// (one carrying aggregates), ReshareIncremental the others; their
	// ratio is the data plane's incremental hit rate. Aggregates is the final path-class count —
	// against Sessions it shows the aggregate plane's compression.
	ReshareIncremental uint64 `json:"reshare_incremental_runs,omitempty"`
	ReshareFull        uint64 `json:"reshare_full_runs,omitempty"`
	// ReshareComponents counts the independent max-min components solved
	// across all reshares, each gathered by one walk from a dirty link;
	// the partition depends only on the incidence graph.
	ReshareComponents uint64 `json:"reshare_components,omitempty"`
	Aggregates        int    `json:"aggregates,omitempty"`

	// Planner amortisation telemetry: the PlanContext artifact cache's
	// hit/miss split (deterministic because strategies propose one after
	// another in registration order, so it is compared across worker
	// widths) and the number of min-max LP solves.
	PlanCacheHits   uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses uint64 `json:"plan_cache_misses,omitempty"`
	// QoECacheHits/Misses split the artifact cache's memoised QoE
	// predictions (populated only by saturated planning rounds),
	// deterministic for the same reason.
	QoECacheHits   uint64 `json:"qoe_cache_hits,omitempty"`
	QoECacheMisses uint64 `json:"qoe_cache_misses,omitempty"`
	// Deprecated: no effect (always zero): the LP has no warm start.
	// Kept only because bench/ reads it until ROADMAP item 1.
	LPWarmSolves uint64 `json:"lp_warm_solves,omitempty"`
	LPColdSolves uint64 `json:"lp_cold_solves,omitempty"`
	// Deprecated: no effect (always zero), as LPWarmSolves.
	LPFallbackSolves uint64 `json:"lp_fallback_solves,omitempty"`

	// Deprecated: no effect (always zero): there is no pool width. Kept only because bench/ writes it until ROADMAP item 1.
	Workers int `json:"workers,omitempty"`
	// Deprecated: no effect (always zero): events run one at a time.
	// Kept only because bench/ reads it until ROADMAP item 1.
	ParallelBatches uint64 `json:"parallel_batches,omitempty"`
	MaxBatch        int    `json:"max_batch,omitempty"`

	// Fast failover (meaningful when the spec schedules a failure).
	// FailureAt is the first scheduled link-down instant; FailoverCommitAt
	// the first plan committed at or after it; FailoverLatency their
	// difference — the failure-to-commit reaction time the BFD path is
	// built to shrink. FailoverStallSeconds is the viewer stall
	// time accrued inside the failover window (failure to failure +
	// failoverWindow). All durations are -1 when not applicable.
	FailureAt            time.Duration `json:"failure_at"`
	FailoverCommitAt     time.Duration `json:"failover_commit_at"`
	FailoverLatency      time.Duration `json:"failover_latency"`
	FailoverStallSeconds float64       `json:"failover_stall_seconds,omitempty"`
	// Deprecated: no effect (always zero); kept only because bench/
	// reads it until ROADMAP item 1.
	StandbyPrecomputed int `json:"standby_precomputed,omitempty"`
	// Deprecated: no effect (always zero); kept only because bench/
	// reads it until ROADMAP item 1.
	StandbyHits int `json:"standby_hits,omitempty"`
	// BFD liveness counters (zero unless Spec.BFD enabled the engine).
	BFDSessions  int    `json:"bfd_sessions,omitempty"`
	BFDLinkDowns uint64 `json:"bfd_link_downs,omitempty"`
	BFDLinkUps   uint64 `json:"bfd_link_ups,omitempty"`

	ControllerErrors []string `json:"controller_errors,omitempty"`
	ProtocolErrors   []string `json:"protocol_errors,omitempty"`
	// Notes carries non-fatal reporting degradations (e.g. the LP bound
	// being unavailable because the solver stalled): the run itself is
	// still valid, so these do not trip invariants.
	Notes []string `json:"notes,omitempty"`
}

// Summary renders a one-line human summary of the report.
func (r *Report) Summary() string {
	mode := "ctrl-off"
	if r.Controller {
		mode = "ctrl-on "
	}
	lat := "-"
	if r.ReactionLatency >= 0 {
		lat = r.ReactionLatency.String()
	}
	s := fmt.Sprintf("%-28s %s settled=%.2f peak=%.2f analytic=%.2f lp=%.2f lies=%d stalls=%.1fs late=%.1fs react=%s delivered=%.0fMbit",
		r.Scenario, mode, r.SettledUtilisation, r.PeakUtilisation, r.AnalyticUtilisation,
		r.LPOptimum, r.Lies, r.StallSeconds, r.LateStallSeconds, lat, r.DeliveredMbit)
	if len(r.Decisions) > 0 {
		wins := make(map[string]int)
		for _, d := range r.Decisions {
			wins[d.Strategy]++
		}
		var parts []string
		for _, name := range slices.Sorted(maps.Keys(wins)) {
			parts = append(parts, fmt.Sprintf("%s:%d", name, wins[name]))
		}
		s += " wins=" + strings.Join(parts, ",")
	}
	return s
}

// Comparison pairs the controller-on and controller-off runs of one spec
// with the invariant violations found between them.
type Comparison struct {
	Spec       Spec     `json:"spec"`
	On         *Report  `json:"on"`
	Off        *Report  `json:"off"`
	Violations []string `json:"violations,omitempty"`
}

// Render writes the comparison as an indented human-readable block.
func (c *Comparison) Render(b *strings.Builder) {
	fmt.Fprintf(b, "%s\n  %s\n  %s\n", c.Spec.Name, c.On.Summary(), c.Off.Summary())
	for _, v := range c.Violations {
		fmt.Fprintf(b, "  VIOLATION: %s\n", v)
	}
}

// RenderCacheStats writes the planner amortisation telemetry — the
// PlanContext artifact cache's hit/miss split, the LP solve count, the
// reshare's component count, and
// the per-strategy propose timings — as indented lines. fiblab prints it
// under -cache-stats; all fields are also present in the JSON report.
func (r *Report) RenderCacheStats(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%splan-cache %d hit / %d miss; qoe %d hit / %d miss; lp %d solves; reshare components %d\n",
		indent, r.PlanCacheHits, r.PlanCacheMisses,
		r.QoECacheHits, r.QoECacheMisses,
		r.LPColdSolves, r.ReshareComponents)
	for _, name := range slices.Sorted(maps.Keys(r.StrategyPerf)) {
		p := r.StrategyPerf[name]
		fmt.Fprintf(b, "%sstrategy %-10s proposals=%d wins=%d propose=%s\n",
			indent, name, p.Proposals, p.Wins, time.Duration(p.Nanos))
	}
}
