package qoe

import (
	"math"
	"testing"
	"time"
)

// FuzzPredictSession drives the analytic session model with hostile
// inputs — zero and negative rates, delivered rates capped below the
// lowest ladder rung, NaN/Inf rates and config fields, degenerate
// horizons — and checks the predictions stay physical: every field
// finite and non-negative, stall plus startup wait never exceeding the
// horizon, and the steady rate drawn from the (sanitised) ladder.
func FuzzPredictSession(f *testing.F) {
	// rate, horizonSec, rung1, rung2, segMs, safety, startupBuffer
	f.Add(0.0, 30.0, 1e6, 2e6, int64(2000), 0.8, 2.0)   // starved session
	f.Add(5e4, 30.0, 1e6, 2e6, int64(2000), 0.8, 2.0)   // rate below lowest rung
	f.Add(1.5e6, 30.0, 1e6, 0.0, int64(2000), 0.8, 2.0) // single-rung ladder
	f.Add(math.NaN(), 30.0, 1e6, 2e6, int64(2000), 0.8, 2.0)
	f.Add(math.Inf(1), 30.0, math.Inf(1), 2e6, int64(2000), 0.8, 2.0)
	f.Add(1e6, 0.0, 1e6, 2e6, int64(2000), 0.8, 2.0) // zero horizon
	f.Add(-1e6, 30.0, -1e6, 2e6, int64(-5), math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, rate, horizonSec, rung1, rung2 float64, segMs int64, safety, buffer float64) {
		if math.IsNaN(horizonSec) || horizonSec < 0 || horizonSec > 1e6 {
			horizonSec = 30
		}
		horizon := time.Duration(horizonSec * float64(time.Second))
		cfg := SessionConfig{
			Ladder:          []float64{rung1, rung2},
			SegmentDuration: time.Duration(segMs) * time.Millisecond,
			SafetyFactor:    safety,
			StartupBuffer:   buffer,
		}
		p := PredictSession(cfg, rate, horizon)

		check := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("PredictSession(%+v, rate=%v, horizon=%v): %s = %v is not finite and non-negative",
					cfg, rate, horizon, name, v)
			}
		}
		check("StallSeconds", p.StallSeconds)
		check("StartupWaitSeconds", p.StartupWaitSeconds)
		check("Switches", p.Switches)
		check("SteadyRate", p.SteadyRate)
		if s := p.Score(); math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Errorf("PredictSession(%+v, rate=%v, horizon=%v): Score() = %v", cfg, rate, horizon, s)
		}
		if T := horizon.Seconds(); p.StallSeconds+p.StartupWaitSeconds > T*(1+1e-9)+1e-9 {
			t.Errorf("PredictSession(%+v, rate=%v, horizon=%v): stall %v + wait %v exceeds horizon %vs",
				cfg, rate, horizon, p.StallSeconds, p.StartupWaitSeconds, T)
		}
	})
}
