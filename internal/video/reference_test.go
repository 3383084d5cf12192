package video

import (
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/netsim"
)

// soloSession is the per-session reference the SessionPool is held to: a
// session with a player of its own, its own scheduler ticker and one
// netsim.Delivered read per tick, kept as SimSession was before pooled
// sessions shared their players.
type soloSession struct {
	Player *Player

	net      *netsim.Network
	flow     netsim.FlowID
	lastSeen float64
	lastAt   time.Duration
	ticker   *event.Ticker
	done     bool
}

// newSoloSession attaches a player to a flow and starts sampling every
// interval (default 250 ms).
func newSoloSession(sched *event.Scheduler, net *netsim.Network, flow netsim.FlowID, bitrate float64, interval time.Duration) *soloSession {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	s := &soloSession{
		Player: NewPlayer(bitrate),
		net:    net,
		flow:   flow,
		lastAt: sched.Now(),
	}
	s.ticker = sched.NewTicker(interval, func() { s.tick(sched.Now()) })
	return s
}

func (s *soloSession) tick(now time.Duration) {
	if s.done {
		return
	}
	delivered, live := s.net.Delivered(s.flow)
	s.credit(delivered, live, now)
}

// credit hands the player what the flow delivered since the last reading
// (nothing once the flow has finished) and advances playback to now.
func (s *soloSession) credit(delivered float64, live bool, now time.Duration) {
	if live {
		if d := delivered - s.lastSeen; d > 0 {
			s.Player.OnDownloadedBytes(d)
		}
		s.lastSeen = delivered
	}
	s.Player.Advance(now - s.lastAt)
	s.lastAt = now
}

// Stop halts sampling (e.g. when the flow ends).
func (s *soloSession) Stop() {
	s.done = true
	s.ticker.Stop()
}

// QoE returns the session's playback metrics so far.
func (s *soloSession) QoE() QoE { return s.Player.QoE() }
