package scenarios

import (
	"strings"
	"sync/atomic"
	"testing"
)

// qoeCheckFloor is the non-vacuity floor of the safety oracle over the
// QoE cells' controller arms (6 checks today: two per arm).
const qoeCheckFloor = 6

// TestScoreModeComparison is the CI gate of the QoE claim: on every QoE
// cell, where every routing saturates, the controller arm must stall at
// least beatStallMargin less than plain IGP. Cells run in parallel; each
// is two full simulations. The safety oracle watches both and holds the
// controller arm to the twin rule against the off arm: a saturated
// round lets local-ecmp recruit uphill loop-free alternates, so these
// are the cells whose lies go uphill.
func TestScoreModeComparison(t *testing.T) {
	specs := QoESpecs()
	var cells, checks atomic.Int64
	t.Cleanup(func() {
		if n := checks.Load(); cells.Load() == int64(len(specs)) && n < qoeCheckFloor {
			t.Errorf("%d safety checks over the controller arms, want >= %d", n, qoeCheckFloor)
		}
	})
	for _, spec := range specs {
		if spec.Viewers >= 100_000 && testing.Short() {
			continue // ~the most expensive cell; -short keeps quick loops quick
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c, n := compareQoESafely(t, spec)
			cells.Add(1)
			checks.Add(int64(n))
			var b strings.Builder
			c.Render(&b)
			t.Log("\n" + b.String())
			for _, v := range c.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// compareQoESafely is CompareQoE with the safety oracle on both arms:
// it holds the controller arm to the twin rule against the off arm and
// returns its check count.
func compareQoESafely(t *testing.T, spec Spec) (*Comparison, int) {
	t.Helper()
	spec = spec.withDefaults()
	r, w, err := runWatchedArms(spec, onOff...)
	if err != nil {
		t.Fatal(err)
	}
	n := requireSafe(t, r[0], w[0], w[1])
	t.Logf("%s: %d safety checks", r[0].Scenario, n)
	return &Comparison{Spec: spec, On: r[0], Off: r[1], Violations: QoEViolations(r[0], r[1])}, n
}
