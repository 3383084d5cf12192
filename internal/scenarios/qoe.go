package scenarios

import (
	"fmt"
	"strings"
)

// The score-mode comparison cells: the same topology and schedule run
// once per planner scoring objective, checking that QoE-aware scoring
// actually buys fewer stalled viewer-seconds — predicted and simulated —
// without breaking the never-worsen admissibility contract.

// QoESpecs returns the score-mode comparison cells. The skew schedule
// overloads both of the ring's disjoint directions, so every routing
// saturates and the planner's only real choice is which crowd eats the
// shortfall (see buildWaves); the flashcrowd-qoe cells are the same
// comparison with the overload sliced into tens of thousands of viewers
// at 1 Gbit/s links, driving the score-mode machinery through the
// aggregate traffic plane.
func QoESpecs() []Spec {
	return named([]Spec{
		{Topo: TopoSpec{Family: "ring", Size: 9}, Workload: "skew", Seed: 31},
		{Name: "ring5/skew", Topo: TopoSpec{Family: "ring", Size: 5}, Workload: "skew", Seed: 32},
		{Name: "flashcrowd-qoe-100k", Topo: TopoSpec{Family: "ring", Size: 9, Capacity: 1e9},
			Workload: "skew", Viewers: 100_000, Seed: 33},
	})
}

// ScoreModeComparison is the outcome of one spec run under both scoring
// objectives (plus the no-controller baseline) with the cross-mode
// invariant violations found between them.
type ScoreModeComparison struct {
	Spec Spec    `json:"spec"`
	Util *Report `json:"util"`
	QoE  *Report `json:"qoe"`
	Off  *Report `json:"off"`
	// Violations is empty when the cell holds.
	Violations []string `json:"violations,omitempty"`
}

// Render writes the comparison as an indented human-readable block.
func (c *ScoreModeComparison) Render(b *strings.Builder) {
	b.WriteString(c.Spec.Name + "\n")
	for _, r := range []*Report{c.QoE, c.Util, c.Off} {
		b.WriteString("  " + r.Summary() + "\n")
	}
	for _, r := range []*Report{c.QoE, c.Util} {
		fmt.Fprintf(b, "    %s: predicted stalls %.1fs\n", r.Scenario, r.PredictedStallSeconds)
	}
	for _, v := range c.Violations {
		b.WriteString("  VIOLATION: " + v + "\n")
	}
}

// CompareScoreModes runs one spec three times — controller off,
// controller on with utilisation scoring, controller on with QoE scoring
// — and checks the score-mode invariants.
func CompareScoreModes(spec Spec) (*ScoreModeComparison, error) {
	spec = spec.withDefaults()
	scored := func(mode string) func(*Spec) {
		return func(s *Spec) { s.ScoreMode, s.Name = mode, spec.Name+"@"+mode }
	}
	r, err := runArms(spec, arm{"off", nil, false}, arm{"util", scored("util"), true}, arm{"qoe", scored("qoe"), true})
	if err != nil {
		return nil, err
	}
	return &ScoreModeComparison{Spec: spec, Util: r[1], QoE: r[2], Off: r[0],
		Violations: ScoreModeViolations(spec, r[1], r[2], r[0])}, nil
}

// ScoreModeViolations checks the cross-mode invariants of one score-mode
// comparison cell and returns human-readable violations (empty means the
// cell holds):
//
//   - the workload must actually stress the network (plain IGP saturates
//     and installs no lies),
//   - QoE scoring must commit plans: lies exist and touch only the
//     target prefix,
//   - the tentpole claim: the QoE-scored run ends with strictly fewer
//     simulated stall-seconds than the utilisation-scored run, and its
//     analytic prediction agrees about the direction,
//   - never-worsen, restated in QoE terms: however hot the QoE-scored
//     plan lets a link run, viewers must not stall more than under plain
//     IGP,
//   - no run may corrupt the protocol machinery.
func ScoreModeViolations(spec Spec, util, qoe, off *Report) []string {
	spec = spec.withDefaults()
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if off.SettledUtilisation < saturated {
		fail("workload does not stress the IGP path: settled utilisation %.3f without controller",
			off.SettledUtilisation)
	}
	if off.Lies != 0 {
		fail("controller-off run installed %d lies", off.Lies)
	}
	if qoe.Lies == 0 {
		fail("qoe-scored run never installed a lie")
	}
	for name, n := range qoe.LiesByPrefix {
		if name != qoe.TargetPrefix && n > 0 {
			fail("%d lies touch prefix %q (target %q)", n, name, qoe.TargetPrefix)
		}
	}

	// The tentpole comparison, on both the simulated and the predicted
	// figure: QoE scoring must buy strictly fewer stalled seconds.
	if qoe.StallSeconds > util.StallSeconds-beatStallMargin {
		fail("qoe scoring does not beat util scoring on simulated stalls: %.1fs vs %.1fs (margin %.1fs)",
			qoe.StallSeconds, util.StallSeconds, beatStallMargin)
	}
	if qoe.PredictedStallSeconds >= util.PredictedStallSeconds {
		fail("qoe scoring does not beat util scoring on predicted stalls: %.1fs vs %.1fs",
			qoe.PredictedStallSeconds, util.PredictedStallSeconds)
	}

	// Never-worsen in QoE terms, against the plain-IGP baseline.
	v = append(v, StallNoWorseThan(qoe, off, 0)...)

	for _, r := range []*Report{util, qoe, off} {
		if len(r.ProtocolErrors) > 0 {
			fail("protocol errors (%s): %v", r.Scenario, r.ProtocolErrors)
		}
		if len(r.ControllerErrors) > 0 {
			fail("controller errors (%s): %v", r.Scenario, r.ControllerErrors)
		}
	}
	return v
}
