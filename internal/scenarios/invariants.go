package scenarios

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/controller"
)

// Tolerances of the invariant checks. The fluid simulator is
// deterministic but quantised ECMP splits, sampling granularity and
// monitor hysteresis put real slack between the LP optimum and what the
// controller achieves.
const (
	// lpSlack is how far above max(θ*, target utilisation) the analytic
	// utilisation may sit with the controller on: it absorbs ECMP-weight
	// quantisation and tier-1's even (rather than optimal) splits.
	lpSlack = 0.15
	// beatUtilMargin is the minimum settled-utilisation improvement that
	// counts as "beating" the no-controller run.
	beatUtilMargin = 0.02
	// beatStallMargin is the minimum stall-seconds improvement that
	// counts as "beating" the no-controller run.
	beatStallMargin = 1.0
	// saturated is the settled utilisation above which a link counts as
	// saturated (the fluid model caps utilisation at 1.0).
	saturated = 0.98
	// lateStallBudget is the stall time allowed inside the settle window
	// with the controller on ("no stalls after convergence").
	lateStallBudget = 0.75
	// maxReactionLatency bounds alarm-to-decision time (two monitor poll
	// intervals plus scheduling slack).
	maxReactionLatency = 10 * time.Second
)

// StallNoWorseThan checks the never-worsen admissibility contract in QoE
// terms: run r's simulated stall time may not exceed the baseline's by
// more than slack seconds. It returns the violation lines (empty means
// the contract holds).
func StallNoWorseThan(r, baseline *Report, slack float64) []string {
	if r.StallSeconds > baseline.StallSeconds+slack {
		return []string{fmt.Sprintf("%s: %.2fs of stalls vs %.2fs baseline (%s) exceeds +%.2fs slack",
			r.Scenario, r.StallSeconds, baseline.StallSeconds, baseline.Scenario, slack)}
	}
	return nil
}

// Violations checks every cross-run invariant of a scenario and returns
// human-readable violations (empty means the cell holds).
func Violations(spec Spec, on, off *Report) []string {
	spec = spec.withDefaults()
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// Workload sanity: the schedule must actually stress the network —
	// without the controller the IGP path saturates.
	if off.SettledUtilisation < saturated {
		fail("workload does not stress the IGP path: settled utilisation %.3f without controller",
			off.SettledUtilisation)
	}
	if off.Lies != 0 {
		fail("controller-off run installed %d lies", off.Lies)
	}

	// The tentpole comparison: the controller must beat plain IGP on
	// settled max utilisation or on stall time.
	utilWin := on.SettledUtilisation <= off.SettledUtilisation-beatUtilMargin
	stallWin := on.StallSeconds <= off.StallSeconds-beatStallMargin
	if !utilWin && !stallWin {
		fail("controller does not beat IGP: settled %.3f vs %.3f, stalls %.1fs vs %.1fs",
			on.SettledUtilisation, off.SettledUtilisation, on.StallSeconds, off.StallSeconds)
	}

	// With the controller, the analytic utilisation of the final routing
	// state must approach the LP optimum for the settled demand (or the
	// controller's own target when the optimum is below it — the
	// controller stops optimising there). The analytic figure is used
	// because the measured one carries per-flow hash noise and saturates
	// at 1.0.
	if on.LPOptimum > 0 {
		if bound := max(on.LPOptimum, controller.TargetUtil); on.AnalyticUtilisation > bound+lpSlack {
			fail("analytic utilisation %.3f exceeds LP optimum %.3f (+%.2f slack)",
				on.AnalyticUtilisation, on.LPOptimum, lpSlack)
		}
	}

	// Lies must exist, target only the scenario's prefix, and react fast.
	if on.Lies == 0 {
		fail("controller never installed a lie")
	}
	for name, n := range on.LiesByPrefix {
		if name != on.TargetPrefix && n > 0 {
			fail("%d lies touch prefix %q (target %q)", n, name, on.TargetPrefix)
		}
	}
	if on.ReactionLatency >= 0 && on.ReactionLatency > maxReactionLatency {
		fail("reaction latency %v exceeds %v", on.ReactionLatency, maxReactionLatency)
	}

	// No stalls after convergence: once the settle window starts, the
	// controller-managed network must play back smoothly.
	if on.LateStallSeconds > lateStallBudget {
		fail("%.2fs of stalls inside the settle window with the controller on", on.LateStallSeconds)
	}

	// Neither run may corrupt the protocol machinery.
	for _, r := range []*Report{on, off} {
		if len(r.ProtocolErrors) > 0 {
			fail("protocol errors (controller=%v): %v", r.Controller, r.ProtocolErrors)
		}
		if len(r.ControllerErrors) > 0 {
			fail("controller errors (controller=%v): %v", r.Controller, r.ControllerErrors)
		}
	}
	return v
}
