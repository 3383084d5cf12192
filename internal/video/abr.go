package video

import (
	"slices"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/netsim"
)

// This file extends the demo's fixed-bitrate players with DASH-style
// adaptive bitrate (ABR). ABR is the obvious "what if the application
// defends itself?" question the paper's motivation raises: an adaptive
// player masks congestion by downshifting quality, trading stalls for
// bitrate. The ABR experiment quantifies what Fibbing adds even then —
// the network carries every player at the top rung instead of forcing
// the crowd down the ladder.

// DefaultLadder is a typical SD ladder around the demo's 500 kbit/s rate.
var DefaultLadder = []float64{0.2e6, 0.5e6, 1.0e6}

// ABRConfig parameterises an adaptive player.
type ABRConfig struct {
	// Ladder is the set of available bitrates, ascending.
	Ladder []float64
	// SegmentDuration of media per segment (default 2 s).
	SegmentDuration time.Duration
	// SafetyFactor scales the throughput estimate when choosing a rung
	// (default 0.8: pick the highest rung <= 0.8 * estimated rate).
	SafetyFactor float64
	// StartupBuffer in media seconds (default 2).
	StartupBuffer float64
}

func (c ABRConfig) withDefaults() ABRConfig {
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder
	}
	slices.Sort(c.Ladder)
	if c.SegmentDuration <= 0 {
		c.SegmentDuration = 2 * time.Second
	}
	if c.SafetyFactor <= 0 {
		c.SafetyFactor = 0.8
	}
	if c.StartupBuffer <= 0 {
		c.StartupBuffer = 2
	}
	return c
}

// ABRQoE extends QoE with quality metrics.
type ABRQoE struct {
	QoE
	// MeanBitrate is the media-time-weighted average rung (bit/s).
	MeanBitrate float64
	// Switches counts rung changes.
	Switches int
	// TopRungShare is the fraction of downloaded media at the top rung.
	TopRungShare float64
}

// ABRSimSession is a segment-based adaptive player bound to a fluid flow.
// It downloads segments sequentially at the selected rung, estimates
// throughput with an EWMA over measured segment rates, and switches rungs
// between segments (throughput-based ABR, as in early DASH players).
type ABRSimSession struct {
	Player *Player
	cfg    ABRConfig

	port deliveryPort
	done bool

	rung     int
	estimate metrics.EWMA

	segStartBytes float64
	segStartTime  time.Duration
	segTarget     float64 // bytes needed for the current segment

	lastAt time.Duration

	switches    int
	mediaByRung []float64
}

// newABRPortSession builds a session against any delivery port — the
// fluid network in the scenarios, a constant-rate tap in the calibration
// harness (RunConstantRate).
func newABRPortSession(sched *event.Scheduler, port deliveryPort, cfg ABRConfig) *ABRSimSession {
	s := &ABRSimSession{
		Player:      NewPlayer(cfg.Ladder[0]), // Bitrate field unused for media accounting
		cfg:         cfg,
		port:        port,
		rung:        0, // conservative start, as real players do
		lastAt:      sched.Now(),
		mediaByRung: make([]float64, len(cfg.Ladder)),
	}
	s.Player.StartupBuffer = cfg.StartupBuffer
	s.estimate = metrics.EWMA{Alpha: 0.4}
	s.beginSegment(sched.Now())
	return s
}

func (s *ABRSimSession) beginSegment(now time.Duration) {
	rate := s.cfg.Ladder[s.rung]
	s.segTarget = rate * s.cfg.SegmentDuration.Seconds() / 8
	if d, ok := s.port.Delivered(); ok {
		s.segStartBytes = d
	}
	s.segStartTime = now
	s.port.SetMaxRate(rate * 4)
}

func (s *ABRSimSession) tick(now time.Duration) {
	if s.done {
		return
	}
	delivered, live := s.port.Delivered()
	if live {
		for delivered-s.segStartBytes >= s.segTarget {
			// Segment complete: credit media, estimate throughput,
			// choose the next rung.
			s.Player.OnDownloadedMedia(s.cfg.SegmentDuration.Seconds())
			s.mediaByRung[s.rung] += s.cfg.SegmentDuration.Seconds()
			elapsed := (now - s.segStartTime).Seconds()
			if elapsed <= 0 {
				elapsed = 0.05
			}
			measured := s.segTarget * 8 / elapsed // bit/s
			est := s.estimate.Update(measured)
			next := s.chooseRung(est)
			if next != s.rung {
				s.switches++
				s.rung = next
			}
			s.segStartBytes += s.segTarget
			s.segStartTime = now
			s.beginSegmentContinue(now)
		}
	}
	s.Player.Advance(now - s.lastAt)
	s.lastAt = now
}

// ABRSessionPool drives adaptive sessions from one shared ticker, the
// ABR counterpart of SessionPool. Its sessions keep their one-flow reads
// (netsim.Delivered): a tick also writes rate caps back through
// SetFlowMaxRate, one network call per session anyway, so a batched read
// would not make this pool's tick one call.
type ABRSessionPool struct {
	sched    *event.Scheduler
	net      *netsim.Network
	cfg      ABRConfig
	sessions []*ABRSimSession
}

// NewABRSessionPool starts a pool ticking every 100 ms (the per-session
// cadence adaptive players use).
func NewABRSessionPool(sched *event.Scheduler, net *netsim.Network, cfg ABRConfig) *ABRSessionPool {
	p := &ABRSessionPool{sched: sched, net: net, cfg: cfg.withDefaults()}
	sched.NewTicker(100*time.Millisecond, func() {
		// Stopped sessions are compacted out in place, as in SessionPool.
		now, live := sched.Now(), p.sessions[:0]
		for _, s := range p.sessions {
			if !s.done {
				s.tick(now)
				live = append(live, s)
			}
		}
		p.sessions = live
	})
	return p
}

// Attach joins a new adaptive session for the flow to the pool: the one
// way an adaptive player joins a fluid flow. The session manages the
// flow's rate cap: 4x the current rung, modelling the bursty segment
// fetches of real players (and leaving the estimator headroom to observe
// rates above the current rung, without which no player could ever
// justify an up-switch).
func (p *ABRSessionPool) Attach(flow netsim.FlowID) *ABRSimSession {
	s := newABRPortSession(p.sched, flowPort{net: p.net, flow: flow}, p.cfg)
	p.sessions = append(p.sessions, s)
	return s
}

// beginSegmentContinue starts the next segment without resetting the
// delivered-bytes baseline (already advanced by the caller).
func (s *ABRSimSession) beginSegmentContinue(now time.Duration) {
	rate := s.cfg.Ladder[s.rung]
	s.segTarget = rate * s.cfg.SegmentDuration.Seconds() / 8
	s.segStartTime = now
	s.port.SetMaxRate(rate * 4)
}

func (s *ABRSimSession) chooseRung(estimate float64) int {
	best := 0
	for i, rate := range s.cfg.Ladder {
		if rate <= s.cfg.SafetyFactor*estimate {
			best = i
		}
	}
	return best
}

// Rung returns the current ladder index.
func (s *ABRSimSession) Rung() int { return s.rung }

// Stop halts the session.
func (s *ABRSimSession) Stop() {
	s.done = true
}

// QoE returns playback and quality metrics.
func (s *ABRSimSession) QoE() ABRQoE {
	q := ABRQoE{QoE: s.Player.QoE(), Switches: s.switches}
	total := 0.0
	weighted := 0.0
	for i, sec := range s.mediaByRung {
		total += sec
		weighted += sec * s.cfg.Ladder[i]
	}
	if total > 0 {
		q.MeanBitrate = weighted / total
		q.TopRungShare = s.mediaByRung[len(s.mediaByRung)-1] / total
	}
	return q
}

// AggregateABR folds per-session ABR metrics.
type ABRAggregate struct {
	Aggregate
	MeanBitrate  float64
	TopRungShare float64
	Switches     int
}

// AggregateABRQoE summarises ABR sessions.
func AggregateABRQoE(qs []ABRQoE) ABRAggregate {
	base := make([]QoE, len(qs))
	var bitrate, top float64
	switches := 0
	for i, q := range qs {
		base[i] = q.QoE
		bitrate += q.MeanBitrate
		top += q.TopRungShare
		switches += q.Switches
	}
	out := ABRAggregate{Aggregate: AggregateQoE(base), Switches: switches}
	if len(qs) > 0 {
		out.MeanBitrate = bitrate / float64(len(qs))
		out.TopRungShare = top / float64(len(qs))
	}
	return out
}
