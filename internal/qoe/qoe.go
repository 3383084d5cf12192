// Package qoe predicts viewer experience from delivered bandwidth: an
// analytic model mapping a session's delivered rate to the stall-seconds,
// startup wait and bitrate-switch count the internal/video player models
// would accrue over a horizon, and a plan-level aggregator mapping a
// routing outcome (topology + per-prefix route views + demands) to the
// predicted experience of every member session behind the demand
// aggregates.
//
// The point is closing the paper's loop: fibbing exists to serve video
// delivery, so the planner should be able to score a candidate lie set on
// what viewers would feel, not only on max link utilisation. The session
// model is calibrated against internal/video's ABR simulation
// (TestPredictorMatchesSimulation pins the agreement); the plan model
// splits each demand aggregate's sessions over its forwarding graph and
// shares the links among them with the data plane's own progressive
// filling (netsim.Fill), cheap enough to memoise per candidate plan
// inside the planner's artifact cache.
package qoe

import (
	"math"
	"time"
)

// DefaultHorizon is the prediction window the controller scores plans
// over when no horizon is configured: long enough that steady-state
// stall rates dominate startup transients, short enough that the scores
// react to demand changes.
const DefaultHorizon = 30 * time.Second

// SessionConfig describes one member session's playback model. It
// mirrors video.ABRConfig field for field (the property tests in this
// package pin the two against each other); a single-rung ladder
// degenerates to the fixed-bitrate Player the scenario harness tracks.
type SessionConfig struct {
	// Ladder is the set of available bitrates in bit/s, ascending. A
	// single entry models a fixed-rate player.
	Ladder []float64
	// SegmentDuration of media per segment (default 2 s).
	SegmentDuration time.Duration
	// SafetyFactor scales the throughput estimate when choosing a rung
	// (default 0.8).
	SafetyFactor float64
	// StartupBuffer in media seconds that must accumulate before
	// playback starts or resumes (default 2).
	StartupBuffer float64
}

// withDefaults resolves the zero values exactly as video.ABRConfig does,
// and drops non-positive or non-finite rungs so a hostile ladder cannot
// poison the arithmetic.
func (c SessionConfig) withDefaults() SessionConfig {
	ladder := make([]float64, 0, len(c.Ladder))
	for _, r := range c.Ladder {
		if r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
			ladder = append(ladder, r)
		}
	}
	c.Ladder = ladder
	if c.SegmentDuration <= 0 {
		c.SegmentDuration = 2 * time.Second
	}
	if c.SafetyFactor <= 0 || math.IsNaN(c.SafetyFactor) || math.IsInf(c.SafetyFactor, 0) {
		c.SafetyFactor = 0.8
	}
	if c.StartupBuffer <= 0 || math.IsNaN(c.StartupBuffer) || math.IsInf(c.StartupBuffer, 0) {
		c.StartupBuffer = 2
	}
	sortFloats(c.Ladder)
	return c
}

// SessionPrediction is the predicted experience of one session watching
// for the horizon at a constant delivered rate.
type SessionPrediction struct {
	// StallSeconds is rebuffering time after playback started. A session
	// that never starts stalls zero seconds (matching video.Player,
	// which counts stall time only after the first start).
	StallSeconds float64
	// StartupWaitSeconds is time spent waiting for the first frame,
	// capped at the horizon (a starved session waits the whole run).
	StartupWaitSeconds float64
	// Switches is the predicted number of bitrate-rung changes.
	Switches float64
	// SteadyRate is the ladder rung (bit/s) the session settles on; 0
	// when the ladder is empty.
	SteadyRate float64
}

// Score folds a prediction into one pain figure: seconds of the horizon
// the viewer spends not watching (stalled or still waiting to start).
// Both terms are wall-clock seconds, so they add; the planner minimises
// this.
func (p SessionPrediction) Score() float64 {
	return p.StallSeconds + p.StartupWaitSeconds
}

// PredictSession models video.ABRSimSession at a constant delivered rate
// (bit/s) over the horizon.
//
// The model mirrors the simulation's mechanics: segments download at
// min(rate, 4x rung) — the session caps its flow at 4x the current rung —
// the throughput EWMA (alpha 0.4, first sample taken directly) drives
// chooseRung between segments, and the Player's buffer gates playback
// behind StartupBuffer media-seconds. At the steady rung L the playback
// duty cycle is f = delivered/L: for f < 1 the buffer drains, playback
// alternates B/(1-f) seconds of play with B/f of rebuffering, and the
// stalled share of post-startup time is (1-f).
func PredictSession(cfg SessionConfig, rate float64, horizon time.Duration) SessionPrediction {
	cfg = cfg.withDefaults()
	T := horizon.Seconds()
	if T <= 0 || len(cfg.Ladder) == 0 {
		return SessionPrediction{}
	}
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	var p SessionPrediction

	// Walk the rung ramp segment by segment: measured throughput is
	// min(rate, 4x rung), the EWMA converges onto it, and chooseRung
	// reacts between segments. With a constant rate the walk is monotone
	// (the estimate only moves towards the current measured value, which
	// only grows with the rung), so it terminates at a fixed point.
	const alpha = 0.4
	est, started := 0.0, false
	rung := 0
	elapsed := 0.0
	for iter := 0; iter < 4*len(cfg.Ladder)+32; iter++ {
		delivered := math.Min(rate, 4*cfg.Ladder[rung])
		if delivered <= 0 {
			break // nothing arrives; the session sits at rung 0 forever
		}
		segTime := cfg.Ladder[rung] * cfg.SegmentDuration.Seconds() / delivered
		if elapsed+segTime > T {
			break // the horizon ends mid-ramp
		}
		elapsed += segTime
		if !started {
			est, started = delivered, true
		} else {
			est += alpha * (delivered - est)
		}
		next := chooseRung(cfg, est)
		if next != rung {
			p.Switches++
			rung = next
			continue
		}
		if math.Abs(delivered-est) <= 1e-6*math.Max(1, delivered) {
			break // estimate converged on the steady rung
		}
	}
	steady := cfg.Ladder[rung]
	p.SteadyRate = steady

	// Steady-state duty cycle at the settled rung.
	delivered := math.Min(rate, 4*steady)
	f := delivered / steady
	B := cfg.StartupBuffer
	if f <= 0 {
		// Nothing is ever delivered: the player waits for its first frame
		// the whole horizon and, never having started, never stalls.
		p.StartupWaitSeconds = T
		return p
	}
	startup := B / f
	if startup >= T {
		p.StartupWaitSeconds = T
		p.Switches = 0 // rung changes before the first frame are invisible
		return p
	}
	p.StartupWaitSeconds = startup
	if f < 1 {
		// Post-startup, the (1-f) share of remaining wall time is spent
		// rebuffering (play B/(1-f), stall B/f, repeat).
		p.StallSeconds = (1 - f) * (T - startup)
	}
	return p
}

// chooseRung mirrors ABRSimSession.chooseRung: the highest rung at or
// below SafetyFactor x estimate, defaulting to the lowest.
func chooseRung(cfg SessionConfig, estimate float64) int {
	best := 0
	for i, rate := range cfg.Ladder {
		if rate <= cfg.SafetyFactor*estimate {
			best = i
		}
	}
	return best
}

// sortFloats is a tiny insertion sort: ladders have a handful of rungs
// and this avoids pulling sort into the hot path's dependency surface.
func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
