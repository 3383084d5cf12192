package video

import (
	"math"
	"testing"
	"time"
)

func TestPlayerStartupAndSmoothPlayback(t *testing.T) {
	p := NewPlayer(1e6) // 1 Mbit/s
	p.StartupBuffer = 2

	// Nothing downloaded: the clock advances as startup delay.
	p.Advance(time.Second)
	// Download 3 media-seconds worth (3e6 bits = 375000 bytes).
	p.OnDownloadedBytes(375000)
	p.Advance(2 * time.Second) // plays 2s
	q := p.QoE()
	if q.StartupDelay != time.Second {
		t.Fatalf("startup = %v", q.StartupDelay)
	}
	if q.Stalls != 0 || math.Abs(q.PlayedSec-2) > 1e-9 {
		t.Fatalf("qoe = %+v", q)
	}
	if math.Abs(p.Buffered()-1) > 1e-9 {
		t.Fatalf("buffered = %v", p.Buffered())
	}
}

func TestPlayerStallsWhenStarved(t *testing.T) {
	p := NewPlayer(1e6)
	p.StartupBuffer = 1
	p.OnDownloadedBytes(125000) // 1 media second
	p.Advance(3 * time.Second)  // plays 1s then starves 2s
	q := p.QoE()
	if q.Stalls != 1 {
		t.Fatalf("stalls = %d", q.Stalls)
	}
	if q.StallTime != 2*time.Second {
		t.Fatalf("stall time = %v", q.StallTime)
	}
	if math.Abs(q.RebufferRatio-2.0/3) > 1e-9 {
		t.Fatalf("rebuffer = %v", q.RebufferRatio)
	}
	if q.Smooth() {
		t.Fatalf("stalled playback reported smooth")
	}
}

func TestPlayerResumesAfterRebuffer(t *testing.T) {
	p := NewPlayer(1e6)
	p.StartupBuffer = 1
	p.OnDownloadedBytes(125000)
	p.Advance(2 * time.Second) // 1s play, 1s stall
	p.OnDownloadedBytes(250000)
	p.Advance(2 * time.Second) // resumes, plays 2 more seconds
	q := p.QoE()
	if q.Stalls != 1 || math.Abs(q.PlayedSec-3) > 1e-9 {
		t.Fatalf("qoe = %+v", q)
	}
}

func TestPlayerExactDrain(t *testing.T) {
	p := NewPlayer(2e6)
	p.StartupBuffer = 0.5
	p.OnDownloadedBytes(250000) // 1 media second at 2 Mbit/s
	p.Advance(time.Second)
	if b := p.Buffered(); math.Abs(b) > 1e-9 {
		t.Fatalf("buffered = %v, want 0", b)
	}
	// Stall fires only when more wall time passes with an empty buffer.
	q := p.QoE()
	if q.Stalls != 1 {
		// Draining exactly to zero counts the transition as a stall at
		// the boundary; accept 0 or 1 but never more.
		if q.Stalls > 1 {
			t.Fatalf("stalls = %d", q.Stalls)
		}
	}
}

func TestPlayerPanicsOnBadInput(t *testing.T) {
	p := NewPlayer(1e6)
	for _, f := range []func(){
		func() { p.OnDownloadedBytes(-1) },
		func() { p.Advance(-time.Second) },
		func() { NewPlayer(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic")
				}
			}()
			f()
		}()
	}
}

func TestAggregateQoE(t *testing.T) {
	qs := []QoE{
		{StartupDelay: time.Second, RebufferRatio: 0, Stalls: 0},
		{StartupDelay: 3 * time.Second, RebufferRatio: 0.5, Stalls: 2},
	}
	a := AggregateQoE(qs)
	if a.Sessions != 2 || a.MeanStartup != 2*time.Second {
		t.Fatalf("agg = %+v", a)
	}
	if a.TotalStalls != 2 || a.SmoothSessions != 1 {
		t.Fatalf("agg = %+v", a)
	}
	if math.Abs(a.MeanRebuffer-0.25) > 1e-9 || a.WorstRebuffer != 0.5 {
		t.Fatalf("agg = %+v", a)
	}
	if empty := AggregateQoE(nil); empty.Sessions != 0 {
		t.Fatalf("empty agg = %+v", empty)
	}
}
