package scenarios

import (
	"encoding/json"
	"slices"
	"sync/atomic"
	"testing"
)

// TestFailoverInvariants runs every failover cell both ways (BFD vs
// SNMP-poll detection) and checks the 10x latency and stall-ratio
// invariants between them. The safety oracle watches both arms and a
// third, controller-off run of the cell, their twin: neither arm's
// installed forwarding may loop or drop where the twin's does not, and
// every arm is checked at each instant the schedule flips a link.
func TestFailoverInvariants(t *testing.T) {
	specs := FailoverSpecs()
	var cells, checks atomic.Int64
	t.Cleanup(func() {
		if n := checks.Load(); cells.Load() == int64(len(specs)) && n < failoverCheckFloor {
			t.Errorf("%d safety checks over the fast and slow arms, want >= %d", n, failoverCheckFloor)
		}
	})
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			failures, err := failureSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, w, err := runWatchedArms(spec, append(slices.Clip(failoverArms), arm{"twin", nil, false})...)
			if err != nil {
				t.Fatal(err)
			}
			c := &FailoverComparison{Spec: spec, Fast: r[0], Slow: r[1], Violations: FailoverViolations(spec, r[0], r[1])}
			cells.Add(1)
			for i := range 2 {
				checks.Add(int64(requireSafe(t, r[i], w[i], w[2])))
				for _, f := range failures {
					if !w[i].checkedWithin(f.At, 0) {
						t.Errorf("%s: no safety check at the link flip at %v", r[i].Scenario, f.At)
					}
				}
			}
			for _, v := range c.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				for _, r := range []*Report{c.Fast, c.Slow} {
					j, _ := json.MarshalIndent(r, "", "  ")
					t.Logf("%s report:\n%s", r.Scenario, j)
				}
			}
		})
	}
}
