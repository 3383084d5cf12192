// Package video models the demo's application layer: video servers
// streaming segments to playback clients, and the quality-of-experience
// metrics (startup delay, stalls, rebuffer ratio) that distinguish
// "smooth" from "stuttering" playback — the paper's qualitative result.
//
// SimSession drives the Player buffer model with bytes delivered by the
// fluid simulator inside virtual time.
package video

import (
	"fmt"
	"time"
)

// Player is a playback-buffer model. Downloaded media accumulates in the
// buffer; once the startup threshold is reached playback starts, draining
// the buffer in real time. An empty buffer during playback is a stall
// (the paper's "stutter").
type Player struct {
	// Bitrate is the media bitrate in bit/s.
	Bitrate float64
	// StartupBuffer is how much media (seconds) must be buffered before
	// playback starts or resumes after a stall. Default 2 s.
	StartupBuffer float64

	downloadedSec float64 // media seconds downloaded
	playedSec     float64 // media seconds played
	playing       bool
	started       bool

	startupDelay time.Duration
	stallCount   int
	stallTime    time.Duration
	watchTime    time.Duration
	clock        time.Duration
}

// NewPlayer builds a player for the given bitrate.
func NewPlayer(bitrate float64) *Player {
	if bitrate <= 0 {
		panic("video: bitrate must be positive")
	}
	return &Player{Bitrate: bitrate, StartupBuffer: 2}
}

// OnDownloadedBytes credits newly received payload.
func (p *Player) OnDownloadedBytes(n float64) {
	if n < 0 {
		panic("video: negative download")
	}
	p.downloadedSec += n * 8 / p.Bitrate
}

// OnDownloadedMedia credits media directly in seconds — used by adaptive
// players whose bytes-per-media-second varies with the selected rung.
func (p *Player) OnDownloadedMedia(sec float64) {
	if sec < 0 {
		panic("video: negative media")
	}
	p.downloadedSec += sec
}

// Buffered returns the media seconds currently buffered.
func (p *Player) Buffered() float64 { return p.downloadedSec - p.playedSec }

// Advance moves wall-clock time forward and updates playback state.
func (p *Player) Advance(dt time.Duration) {
	if dt < 0 {
		panic("video: negative time step")
	}
	remaining := dt
	for remaining > 0 {
		p.clockStep(&remaining)
	}
}

func (p *Player) clockStep(remaining *time.Duration) {
	dt := *remaining
	if !p.playing {
		// Buffering (startup or rebuffering).
		if p.Buffered() >= p.StartupBuffer {
			p.playing = true
			if !p.started {
				p.started = true
				p.startupDelay = p.clock
			}
			return // consume no time; play from this instant
		}
		// Entire step spent waiting.
		p.clock += dt
		if p.started {
			p.stallTime += dt
		}
		*remaining = 0
		return
	}
	// Playing: drain at most Buffered() seconds of media.
	canPlay := time.Duration(p.Buffered() * float64(time.Second))
	if canPlay >= dt {
		p.playedSec += dt.Seconds()
		p.watchTime += dt
		p.clock += dt
		*remaining = 0
		return
	}
	// Buffer runs dry mid-step: play what we can, then stall.
	p.playedSec += canPlay.Seconds()
	p.watchTime += canPlay
	p.clock += canPlay
	p.playing = false
	p.stallCount++
	*remaining = dt - canPlay
}

// QoE summarises playback quality.
type QoE struct {
	StartupDelay time.Duration
	Stalls       int
	StallTime    time.Duration
	WatchTime    time.Duration
	PlayedSec    float64
	// RebufferRatio = stall time / (stall + watch time); 0 is smooth.
	RebufferRatio float64
}

// Smooth reports whether playback never stalled after starting.
func (q QoE) Smooth() bool { return q.Stalls == 0 }

func (q QoE) String() string {
	return fmt.Sprintf("startup=%v stalls=%d stallTime=%v rebuffer=%.1f%% played=%.1fs",
		q.StartupDelay, q.Stalls, q.StallTime, 100*q.RebufferRatio, q.PlayedSec)
}

// QoE computes the metrics so far.
func (p *Player) QoE() QoE {
	q := QoE{
		StartupDelay: p.startupDelay,
		Stalls:       p.stallCount,
		StallTime:    p.stallTime,
		WatchTime:    p.watchTime,
		PlayedSec:    p.playedSec,
	}
	if total := p.stallTime + p.watchTime; total > 0 {
		q.RebufferRatio = float64(p.stallTime) / float64(total)
	}
	if !p.started {
		q.StartupDelay = p.clock
	}
	return q
}

// Aggregate combines several sessions' QoE (means over sessions, max
// stalls) for experiment tables.
type Aggregate struct {
	Sessions       int
	MeanStartup    time.Duration
	MeanRebuffer   float64
	TotalStalls    int
	WorstRebuffer  float64
	SmoothSessions int
}

// AggregateQoE folds per-session metrics.
func AggregateQoE(qs []QoE) Aggregate {
	a := Aggregate{Sessions: len(qs)}
	if len(qs) == 0 {
		return a
	}
	var sumStart time.Duration
	var sumRebuf float64
	for _, q := range qs {
		sumStart += q.StartupDelay
		sumRebuf += q.RebufferRatio
		a.TotalStalls += q.Stalls
		if q.RebufferRatio > a.WorstRebuffer {
			a.WorstRebuffer = q.RebufferRatio
		}
		if q.Smooth() {
			a.SmoothSessions++
		}
	}
	a.MeanStartup = sumStart / time.Duration(len(qs))
	a.MeanRebuffer = sumRebuf / float64(len(qs))
	return a
}
