package scenarios

import (
	"strings"
	"sync/atomic"
	"testing"
)

// qoeCheckFloor is the non-vacuity floor of the safety oracle over the
// score-mode cells' util and qoe arms (9 checks when it was set: one per
// util arm, two per qoe arm).
const qoeCheckFloor = 6

// TestScoreModeComparison is the CI gate of the QoE tentpole claim: on
// every score-mode cell the qoe-scored run must end with strictly fewer
// stall-seconds — simulated and predicted — than the utilisation-scored
// run of the same topology and schedule, while never stalling viewers
// more than plain IGP (the admissibility contract restated in QoE
// terms). Cells run in parallel; each is three full simulations. The
// safety oracle watches all three, and holds the util and qoe arms to
// the twin rule against the off arm: under QoE scoring local-ecmp
// recruits uphill loop-free alternates, so these are the cells whose
// lies go uphill.
func TestScoreModeComparison(t *testing.T) {
	specs := QoESpecs()
	var cells, checks atomic.Int64
	t.Cleanup(func() {
		if n := checks.Load(); cells.Load() == int64(len(specs)) && n < qoeCheckFloor {
			t.Errorf("%d safety checks over the util and qoe arms, want >= %d", n, qoeCheckFloor)
		}
	})
	for _, spec := range specs {
		if spec.Viewers >= 100_000 && testing.Short() {
			continue // ~the most expensive cell; -short keeps quick loops quick
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c, n := compareScoreModesSafely(t, spec)
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

// compareScoreModesSafely is CompareScoreModes with the safety oracle on
// its three arms: it holds the util and qoe arms to the twin rule against
// the off arm and returns their check count.
func compareScoreModesSafely(t *testing.T, spec Spec) (*ScoreModeComparison, int) {
	t.Helper()
	spec = spec.withDefaults()
	r, w, err := runWatchedArms(spec, scoreModeArms(spec)...)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 1; i <= 2; i++ {
		ni := requireSafe(t, r[i], w[i], w[0])
		t.Logf("%s: %d safety checks", r[i].Scenario, ni)
		n += ni
	}
	return &ScoreModeComparison{Spec: spec, Util: r[1], QoE: r[2], Off: r[0],
		Violations: ScoreModeViolations(spec, r[1], r[2], r[0])}, n
}
