package video

import (
	"math"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/netsim"
)

// deliveryPort abstracts where a session's bytes come from: the fluid
// network in the scenario harness, or a constant-rate tap in the
// calibration harness. The session only ever asks how much has arrived
// and caps its own fetch rate.
type deliveryPort interface {
	// Delivered returns cumulative delivered bytes and whether the
	// source is still live.
	Delivered() (float64, bool)
	// SetMaxRate caps the source at the given bit/s (the session's
	// segment-fetch ceiling).
	SetMaxRate(bitsPerSec float64)
}

// flowPort is the netsim-backed delivery port used by live sessions.
type flowPort struct {
	net  *netsim.Network
	flow netsim.FlowID
}

func (p flowPort) Delivered() (float64, bool) { return p.net.Delivered(p.flow) }
func (p flowPort) SetMaxRate(r float64)       { p.net.SetFlowMaxRate(p.flow, r) }

// constRatePort delivers bytes at a fixed bandwidth, honouring the
// session's rate cap. It integrates lazily against the scheduler clock,
// flushing before every read and before every cap change so a cap set
// mid-interval never applies retroactively.
type constRatePort struct {
	sched *event.Scheduler
	rate  float64 // offered bandwidth, bit/s
	cap   float64 // session's current fetch ceiling, bit/s (0 = none yet)
	bytes float64
	last  time.Duration
}

func (p *constRatePort) flush() {
	now := p.sched.Now()
	dt := (now - p.last).Seconds()
	p.last = now
	if dt <= 0 {
		return
	}
	eff := p.rate
	if p.cap > 0 && p.cap < eff {
		eff = p.cap
	}
	if eff > 0 {
		p.bytes += eff * dt / 8
	}
}

func (p *constRatePort) Delivered() (float64, bool) { p.flush(); return p.bytes, true }
func (p *constRatePort) SetMaxRate(r float64)       { p.flush(); p.cap = r }

// RunConstantRate runs a full ABR session against a constant delivered
// rate (bit/s) for the horizon and returns its QoE. This is the
// calibration hook for internal/qoe: the analytic predictor's property
// tests compare its closed-form answers against this ground truth — the
// real segment loop, EWMA estimator, rung chooser and player buffer,
// with only the network replaced by a fixed-bandwidth tap.
func RunConstantRate(cfg ABRConfig, rate float64, horizon time.Duration) ABRQoE {
	if math.IsNaN(rate) || rate < 0 {
		rate = 0
	}
	sched := event.NewScheduler()
	port := &constRatePort{sched: sched, rate: rate}
	s := newABRPortSession(sched, port, cfg.withDefaults())
	sched.NewTicker(100*time.Millisecond, func() { s.tick(sched.Now()) })
	sched.RunUntil(horizon)
	return s.QoE()
}
