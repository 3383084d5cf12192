package video

import (
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/netsim"
)

// SimSession binds a Player to a fluid-simulator flow: at every tick it
// credits the bytes the flow delivered and advances playback in virtual
// time. This is how the Figure 2 scenario measures smooth vs. stuttering
// playback deterministically.
//
// A session is a demand source: it joins the traffic plane by flow ID and
// polls delivered volume through netsim.Delivered — it never holds flow
// or aggregate state itself.
type SimSession struct {
	Player *Player

	net      *netsim.Network
	flow     netsim.FlowID
	lastSeen float64
	lastAt   time.Duration
	ticker   *event.Ticker // nil when driven by a SessionPool
	done     bool
}

// NewSimSession attaches a player to a flow and starts sampling every
// interval (default 250 ms for smooth buffer dynamics). Prefer a
// SessionPool when attaching many sessions: one shared ticker instead of
// one scheduler event stream per viewer.
func NewSimSession(sched *event.Scheduler, net *netsim.Network, flow netsim.FlowID, bitrate float64, interval time.Duration) *SimSession {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	s := newSimSession(sched, net, flow, bitrate)
	s.ticker = sched.NewTicker(interval, func() { s.tick(sched.Now()) })
	return s
}

func newSimSession(sched *event.Scheduler, net *netsim.Network, flow netsim.FlowID, bitrate float64) *SimSession {
	return &SimSession{
		Player: NewPlayer(bitrate),
		net:    net,
		flow:   flow,
		lastAt: sched.Now(),
	}
}

func (s *SimSession) tick(now time.Duration) {
	if s.done {
		return
	}
	delivered, live := s.net.Delivered(s.flow)
	s.credit(delivered, live, now)
}

// credit hands the player what the flow delivered since the last reading
// (nothing once the flow has finished) and advances playback to now.
func (s *SimSession) credit(delivered float64, live bool, now time.Duration) {
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
func (s *SimSession) Stop() {
	s.done = true
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// QoE returns the session's playback metrics so far.
func (s *SimSession) QoE() QoE { return s.Player.QoE() }

// SessionPool drives any number of SimSessions from one shared ticker and
// one read of the fluid model per tick (netsim.DeliveredInto: one advance,
// one lock), then runs the players on the buffer: the per-viewer cost is a
// slice read plus a player advance, with no per-session scheduler events.
// This is what keeps 100k-viewer flash crowds inside the event budget.
type SessionPool struct {
	sched    *event.Scheduler
	net      *netsim.Network
	sessions []*SimSession

	// flows[i] is sessions[i]'s flow, read[i] its reading; rebuilt per tick.
	flows []netsim.FlowID
	read  []float64
}

// NewSessionPool starts a pool ticking every interval (default 250 ms).
func NewSessionPool(sched *event.Scheduler, net *netsim.Network, interval time.Duration) *SessionPool {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	p := &SessionPool{sched: sched, net: net}
	sched.NewTicker(interval, p.tick)
	return p
}

// tick compacts stopped sessions out in place, so a departed crowd stops
// costing anything (the QoE lives on in whoever kept the session from
// Attach), then reads and credits the live ones. The ticker itself stays
// armed because Attach may add sessions later, and an empty pool's tick
// is a no-op.
func (p *SessionPool) tick() {
	live, flows := p.sessions[:0], p.flows[:0]
	for _, s := range p.sessions {
		if !s.done {
			live, flows = append(live, s), append(flows, s.flow)
		}
	}
	p.sessions, p.flows = live, flows
	p.read = p.net.DeliveredInto(flows, p.read)
	now := p.sched.Now()
	for i, s := range live {
		s.credit(p.read[i], p.read[i] >= 0, now)
	}
}

// Attach joins a new session for the flow to the pool and returns it.
func (p *SessionPool) Attach(flow netsim.FlowID, bitrate float64) *SimSession {
	s := newSimSession(p.sched, p.net, flow, bitrate)
	p.sessions = append(p.sessions, s)
	return s
}

// Len returns the number of sessions still ticking.
func (p *SessionPool) Len() int { return len(p.sessions) }
