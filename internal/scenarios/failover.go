package scenarios

// Fast failover comparison: each failover cell runs twice with the
// controller on — once with BFD liveness (the fast path), once detecting
// failures at SNMP-poll/IGP timescale (the slow path) — and the
// invariants demand an order-of-magnitude gap in both failure-to-commit
// latency and viewer stall time.

import (
	"fmt"
	"strings"
	"time"
)

const (
	// failoverWindow bounds the post-failure stall accounting: stalls
	// accrued between the first link-down and failoverWindow later are
	// attributed to the failure (Report.FailoverStallSeconds). Six
	// seconds covers the slow path's worst case — the OSPF dead
	// interval (4 s) plus a monitor poll — with slack.
	failoverWindow = 6 * time.Second
	// failoverLatencyFactor is the minimum slow/fast ratio of
	// failure-to-commit latency: BFD detection (~150 ms) against the
	// dead-interval + SNMP-poll pipeline must win by 10x or more.
	failoverLatencyFactor = 10.0
	// failoverStallFactor is the same bar for stall seconds inside the
	// failover window.
	failoverStallFactor = 10.0
	// failoverMinSlowStall keeps the stall ratio non-vacuous: the slow
	// path must demonstrably hurt viewers (at least a second of stalls)
	// before a ratio over it means anything.
	failoverMinSlowStall = 1.0
)

// FailoverSpecs returns the fast-failover cells: failure schedules over
// three topology families, each with BFD liveness. CompareFailover runs
// each against its SNMP-timescale twin.
func FailoverSpecs() []Spec {
	return named([]Spec{
		{Topo: TopoSpec{Family: "fig1"}, Workload: "steady", Failure: "hotlink",
			Seed: 21, BFD: true},
		{Topo: TopoSpec{Family: "abilene"}, Workload: "steady", Failure: "cascade",
			Seed: 22, BFD: true},
		{Topo: TopoSpec{Family: "fattree", Size: 4, Seed: 2}, Workload: "steady", Failure: "hotlink",
			Seed: 23, BFD: true},
	})
}

// FailoverComparison pairs the BFD run of a failover cell with its
// SNMP-poll twin and the invariant violations found between them.
type FailoverComparison struct {
	Spec Spec    `json:"spec"`
	Fast *Report `json:"fast"` // BFD liveness
	Slow *Report `json:"slow"` // SNMP poll + IGP dead interval
	// Violations lists the failed failover invariants (empty: cell holds).
	Violations []string `json:"violations,omitempty"`
}

// failoverArms are a failover cell's two runs, controller on in both: as
// specified with BFD, and stripped back to SNMP-poll failure detection
// (the slow twin's name swaps the "+bfd" suffix for "+snmp").
var failoverArms = []arm{{"fast", nil, true}, {"slow", func(s *Spec) {
	s.BFD = false
	s.Name = strings.TrimSuffix(s.Name, "+bfd") + "+snmp"
}, true}}

// CompareFailover runs a failover cell's failoverArms.
func CompareFailover(spec Spec) (*FailoverComparison, error) {
	spec = spec.withDefaults()
	r, err := runArms(spec, failoverArms...)
	if err != nil {
		return nil, err
	}
	return &FailoverComparison{Spec: spec, Fast: r[0], Slow: r[1], Violations: FailoverViolations(spec, r[0], r[1])}, nil
}

// failoverSummary renders one run's failover line for Render.
func failoverSummary(r *Report) string {
	lat, commit := "-", "-"
	if r.FailoverLatency >= 0 {
		lat = r.FailoverLatency.String()
	}
	if r.FailoverCommitAt >= 0 {
		commit = r.FailoverCommitAt.String()
	}
	s := fmt.Sprintf("%-28s commit=%s latency=%s window-stalls=%.1fs",
		r.Scenario, commit, lat, r.FailoverStallSeconds)
	if r.BFDSessions > 0 {
		s += fmt.Sprintf(" bfd-downs=%d", r.BFDLinkDowns)
	}
	return s
}

// Render writes the comparison as an indented human-readable block.
func (c *FailoverComparison) Render(b *strings.Builder) {
	fmt.Fprintf(b, "%s\n  %s\n  %s\n", c.Spec.Name, failoverSummary(c.Fast), failoverSummary(c.Slow))
	for _, v := range c.Violations {
		fmt.Fprintf(b, "  VIOLATION: %s\n", v)
	}
}

// FailoverViolations checks the fast-failover invariants between the
// BFD run and its SNMP-poll twin.
func FailoverViolations(spec Spec, fast, slow *Report) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// The schedule must actually fail a link, and both controllers must
	// have committed a plan after it — otherwise the ratios below
	// compare nothing.
	if fast.FailureAt < 0 || slow.FailureAt < 0 {
		fail("no link failure scheduled (failure_at fast=%v slow=%v)", fast.FailureAt, slow.FailureAt)
		return v
	}
	if fast.FailoverCommitAt < 0 {
		fail("fast run never committed a plan after the failure")
	}
	if slow.FailoverCommitAt < 0 {
		fail("slow run never committed a plan after the failure")
	}
	if len(v) > 0 {
		return v
	}

	// The headline ratio: BFD must cut failure-to-commit latency by an
	// order of magnitude.
	if fast.FailoverLatency <= 0 {
		fail("fast failover latency %v is not positive", fast.FailoverLatency)
	} else if ratio := float64(slow.FailoverLatency) / float64(fast.FailoverLatency); ratio < failoverLatencyFactor {
		fail("failover latency ratio %.1fx below %.0fx (fast %v, slow %v)",
			ratio, failoverLatencyFactor, fast.FailoverLatency, slow.FailoverLatency)
	}

	// And the viewers must feel it: stalls inside the failover window
	// drop by the same order of magnitude, against a slow baseline that
	// demonstrably hurts.
	if slow.FailoverStallSeconds < failoverMinSlowStall {
		fail("slow run stalls only %.2fs inside the failover window; ratio would be vacuous",
			slow.FailoverStallSeconds)
	} else if fast.FailoverStallSeconds*failoverStallFactor > slow.FailoverStallSeconds {
		fail("failover stall ratio below %.0fx (fast %.2fs, slow %.2fs)",
			failoverStallFactor, fast.FailoverStallSeconds, slow.FailoverStallSeconds)
	}

	// The fast path must have gone through the machinery it claims: BFD
	// detected the failure(s).
	if fast.BFDLinkDowns == 0 {
		fail("fast run recorded no BFD down events")
	}

	// Neither run may corrupt the stack.
	for _, r := range []*Report{fast, slow} {
		if len(r.ProtocolErrors) > 0 {
			fail("protocol errors (%s): %v", r.Scenario, r.ProtocolErrors)
		}
		if len(r.ControllerErrors) > 0 {
			fail("controller errors (%s): %v", r.Scenario, r.ControllerErrors)
		}
	}
	return v
}
