package bfd

// The reference engine: the event-driven BFD engine as it was before
// established sessions went quiet, kept verbatim (renamed) as the oracle
// the quiet engine is held to. Every hello of every session is three
// scheduler events here — tx tick, delivery, detection re-arm — and the
// transport ground truth is polled through Blocked. quiet_test.go runs
// both engines side by side over the same link-change programs and
// requires the same notifications, session states and counters.

import (
	"math"
	"math/rand"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// refEngine runs one liveness session per symmetric router-router link of a
// topology. Construct with New, wire the callbacks, then Start.
type refEngine struct {
	topo  *topo.Topology
	sched *event.Scheduler
	cfg   Config

	// Blocked reports whether a directed link currently drops packets —
	// the transport ground truth, typically ospf.(*Domain).LinkBlocked.
	// nil means "never blocked".
	Blocked func(topo.LinkID) bool
	// OnDown fires when a session that had been announced up loses
	// liveness; the link is the session's canonical (lower-ID) half.
	// Never suppressed by damping.
	OnDown func(topo.Link)
	// OnUp fires when liveness returns (subject to flap damping). The
	// first-ever establishment of a session is not announced: the link
	// was never reported down.
	OnUp func(topo.Link)

	sessions map[topo.LinkID]*refSession // keyed by the pair's lower LinkID
	stats    Stats
	started  bool
}

// New builds an engine over the topology's router-router links.
func newRefEngine(t *topo.Topology, sched *event.Scheduler, cfg Config) *refEngine {
	return &refEngine{
		topo:     t,
		sched:    sched,
		cfg:      cfg,
		sessions: make(map[topo.LinkID]*refSession),
	}
}

// Start creates the sessions and begins transmitting hellos. Idempotent.
func (e *refEngine) Start() {
	if e.started {
		return
	}
	e.started = true
	for _, l := range e.topo.Links() {
		if l.Reverse == topo.NoLink || l.Reverse < l.ID {
			continue // one session per pair, keyed by the lower half
		}
		if e.topo.Node(l.From).Host || e.topo.Node(l.To).Host {
			continue // hosts run no IGP, so no liveness sessions either
		}
		s := &refSession{eng: e, link: l}
		seed := e.cfg.Seed*1_000_003 + int64(l.ID)
		s.a.init(s, l.ID, &s.b, seed*2+1)
		s.b.init(s, l.Reverse, &s.a, seed*2+2)
		e.sessions[l.ID] = s
		e.stats.Sessions++
		s.a.armTx()
		s.b.armTx()
	}
}

// Stats returns the engine's counters.
func (e *refEngine) Stats() Stats { return e.stats }

// Session returns the session covering the given directed link (either
// half of the pair), if one exists.
func (e *refEngine) Session(id topo.LinkID) (*refSession, bool) {
	if id < 0 || int(id) >= e.topo.NumLinks() {
		return nil, false
	}
	if s, ok := e.sessions[id]; ok {
		return s, true
	}
	if r := e.topo.Link(id).Reverse; r != topo.NoLink {
		s, ok := e.sessions[r]
		return s, ok
	}
	return nil, false
}

// refSession is the liveness session over one symmetric link: two endpoint
// halves plus the aggregated, damped link verdict.
type refSession struct {
	eng  *refEngine
	link topo.Link   // canonical (lower-ID) half
	a, b refEndpoint // a transmits on link.ID, b on link.Reverse

	up        bool // both endpoints Up
	everUp    bool // handshake completed at least once
	announced bool // what the consumer believes (true after first up)

	penalty    float64       // decaying flap penalty
	penaltyAt  time.Duration // instant penalty was last folded
	suppressed bool          // an up-announcement is pending decay
}

// Link returns the session's canonical link.
func (s *refSession) Link() topo.Link { return s.link }

// Up reports the aggregated (undamped) liveness verdict.
func (s *refSession) Up() bool { return s.up }

// States returns both endpoints' states (the link.From side first).
func (s *refSession) States() (State, State) { return s.a.state, s.b.state }

// Suppressed reports whether flap damping is currently withholding an
// up-announcement.
func (s *refSession) Suppressed() bool { return s.suppressed }

// refEndpoint is one half of a session: it transmits hellos on its directed
// link and runs the RFC 5880 state machine on what it hears back.
type refEndpoint struct {
	sess *refSession
	out  topo.LinkID // directed link toward the peer
	peer *refEndpoint
	rng  *rand.Rand

	state       State
	detect      event.Handle
	detectArmed bool

	// inFlight holds the State field of every hello sent and not yet
	// delivered, oldest first; the three funcs are the refEndpoint's event
	// bodies, bound once so that scheduling one allocates nothing.
	inFlight event.Ring[State]
	onTx     func()
	onArrive func()
	onDetect func()
}

func (ep *refEndpoint) init(s *refSession, out topo.LinkID, peer *refEndpoint, seed int64) {
	ep.sess, ep.out, ep.peer = s, out, peer
	ep.rng = rand.New(rand.NewSource(seed))
	ep.onTx, ep.onArrive, ep.onDetect = ep.txTick, ep.arrive, ep.detectExpired
}

// armTx schedules the next hello at 75–100% of the tx interval (RFC 5880
// §6.8.7 jitter), drawn from this refEndpoint's deterministic PRNG.
func (ep *refEndpoint) armTx() {
	d := time.Duration((0.75 + 0.25*ep.rng.Float64()) * float64(txInterval))
	ep.sess.eng.sched.After(d, ep.onTx)
}

func (ep *refEndpoint) txTick() {
	ep.transmit()
	ep.armTx()
}

// transmit sends one control packet toward the peer. A blocked link eats
// the packet — that is exactly how the peer's detection timer learns of
// the failure.
func (ep *refEndpoint) transmit() {
	eng := ep.sess.eng
	eng.stats.PacketsTx++
	if eng.Blocked != nil && eng.Blocked(ep.out) {
		return
	}
	ep.inFlight.Push(ep.state)
	eng.sched.After(eng.topo.Link(ep.out).Delay, ep.onArrive)
}

// arrive is the far end of transmit: the oldest hello in flight reaches
// the peer, carrying the state it was sent with.
func (ep *refEndpoint) arrive() {
	eng := ep.sess.eng
	sent := ep.inFlight.Pop()
	if eng.Blocked != nil && eng.Blocked(ep.out) {
		return // the link failed while the packet was in flight
	}
	ep.peer.receive(sent)
}

// receive runs the state machine on the state a heard packet was sent
// with and re-arms the detection timer.
func (ep *refEndpoint) receive(sent State) {
	ep.sess.eng.stats.PacketsRx++
	ep.setState(transition(ep.state, sent))
	ep.armDetect()
}

func (ep *refEndpoint) armDetect() {
	eng := ep.sess.eng
	if ep.detectArmed {
		eng.sched.Cancel(ep.detect)
	}
	ep.detect = eng.sched.After(eng.DetectTime(), ep.onDetect)
	ep.detectArmed = true
}

func (ep *refEndpoint) detectExpired() {
	ep.detectArmed = false
	ep.setState(StateDown)
}

func (ep *refEndpoint) setState(next State) {
	if next == ep.state {
		return
	}
	ep.state = next
	ep.sess.refresh()
}

// refresh recomputes the session's aggregated liveness and emits the
// engine callbacks on transitions, applying flap damping to
// up-announcements.
func (s *refSession) refresh() {
	up := s.a.state == StateUp && s.b.state == StateUp
	if up == s.up {
		return
	}
	s.up = up
	now := s.eng.sched.Now()
	if !up {
		s.suppressed = false // a pending damped up is moot now
		if !s.everUp {
			return
		}
		s.addPenalty(now)
		if s.announced {
			s.announced = false
			s.eng.stats.DownEvents++
			if s.eng.OnDown != nil {
				s.eng.OnDown(s.link)
			}
		}
		return
	}
	if !s.everUp {
		// Initial establishment: the consumer never heard the link was
		// down, so there is nothing to announce.
		s.everUp, s.announced = true, true
		return
	}
	if s.decayedPenalty(now) >= suppressAt {
		s.suppressed = true
		s.eng.stats.SuppressedUps++
		s.scheduleReuse(now)
		return
	}
	s.announceUp()
}

func (s *refSession) announceUp() {
	s.suppressed = false
	s.announced = true
	s.eng.stats.UpEvents++
	if s.eng.OnUp != nil {
		s.eng.OnUp(s.link)
	}
}

// scheduleReuse re-examines a damped session once the penalty will have
// decayed below the reuse threshold.
func (s *refSession) scheduleReuse(now time.Duration) {
	p := s.decayedPenalty(now)
	wait := time.Millisecond
	if p > reuseBelow {
		// Solve p · 2^(-t/halfLife) = reuseBelow for t.
		wait = time.Duration(math.Log2(p/reuseBelow) * float64(penaltyHalfLife))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
	}
	s.eng.sched.After(wait, func() {
		if !s.suppressed || !s.up {
			return // went down again (down was announced) or already reused
		}
		if n := s.eng.sched.Now(); s.decayedPenalty(n) >= reuseBelow {
			s.scheduleReuse(n) // numeric slack: not quite below yet
			return
		}
		s.announceUp()
	})
}

func (s *refSession) decayedPenalty(now time.Duration) float64 {
	if s.penalty == 0 {
		return 0
	}
	dt := now - s.penaltyAt
	return s.penalty * math.Exp2(-float64(dt)/float64(penaltyHalfLife))
}

func (s *refSession) addPenalty(now time.Duration) {
	s.penalty = s.decayedPenalty(now) + flapPenalty
	s.penaltyAt = now
}

// DetectTime reports the engine's detection time, detectMult ×
// txInterval: how long a session end waits after the last hello it heard
// before it declares the session down.
func (e *refEngine) DetectTime() time.Duration { return detectMult * txInterval }
