package scenarios

import "fmt"

// The QoE cells: a skewed crowd on a ring where every routing
// saturates, run controller on and off on the same schedule. Once every
// routing overloads a link, routing cannot deliver more, and the only
// choice left is which viewers lose out: the planner ranks by predicted
// stall there, and the controller arm must stall less than plain IGP.

// QoESpecs returns the QoE cells. The skew schedule overloads both of
// the ring's disjoint directions, so every routing saturates and the
// planner's only real choice is which crowd eats the shortfall (see
// buildWaves); the flashcrowd-qoe cell is the same trade with the
// overload sliced into tens of thousands of viewers at 1 Gbit/s links,
// driving the stall order through the aggregate traffic plane.
func QoESpecs() []Spec {
	return named([]Spec{
		{Topo: TopoSpec{Family: "ring", Size: 9}, Workload: "skew", Seed: 31},
		{Name: "ring5/skew", Topo: TopoSpec{Family: "ring", Size: 5}, Workload: "skew", Seed: 32},
		{Name: "flashcrowd-qoe-100k", Topo: TopoSpec{Family: "ring", Size: 9, Capacity: 1e9},
			Workload: "skew", Viewers: 100_000, Seed: 33},
	})
}

// CompareQoE runs one QoE cell controller on and off and checks
// QoEViolations.
func CompareQoE(spec Spec) (*Comparison, error) {
	spec = spec.withDefaults()
	r, err := runArms(spec, onOff...)
	if err != nil {
		return nil, err
	}
	return &Comparison{Spec: spec, On: r[0], Off: r[1], Violations: QoEViolations(r[0], r[1])}, nil
}

// QoEViolations checks a QoE cell's invariants and returns
// human-readable violations (empty means the cell holds):
//
//   - the workload must actually stress the network (plain IGP saturates
//     and installs no lies),
//   - the controller must commit plans: lies exist and touch only the
//     target prefix,
//   - the controller arm must stall at least beatStallMargin less than
//     plain IGP,
//   - no run may corrupt the protocol machinery.
func QoEViolations(on, off *Report) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	if off.SettledUtilisation < saturated {
		fail("workload does not stress the IGP path: settled utilisation %.3f without controller",
			off.SettledUtilisation)
	}
	if off.Lies != 0 {
		fail("controller-off run installed %d lies", off.Lies)
	}
	if on.Lies == 0 {
		fail("controller run never installed a lie")
	}
	for name, n := range on.LiesByPrefix {
		if name != on.TargetPrefix && n > 0 {
			fail("%d lies touch prefix %q (target %q)", n, name, on.TargetPrefix)
		}
	}
	if on.StallSeconds > off.StallSeconds-beatStallMargin {
		fail("controller does not beat IGP on stalls: %.1fs vs %.1fs (margin %.1fs)",
			on.StallSeconds, off.StallSeconds, beatStallMargin)
	}
	for _, r := range []*Report{on, off} {
		if len(r.ProtocolErrors) > 0 {
			fail("protocol errors (%s): %v", r.Scenario, r.ProtocolErrors)
		}
		if len(r.ControllerErrors) > 0 {
			fail("controller errors (%s): %v", r.Scenario, r.ControllerErrors)
		}
	}
	return v
}
