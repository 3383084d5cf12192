// Package bfd implements BFD-style link liveness (RFC 5880's three-state
// machine, asynchronous mode) for the simulated network: one session per
// symmetric router-router link, two endpoint halves exchanging control
// packets over the link at millisecond intervals, with jittered hello
// timers on the virtual scheduler and flap damping on the session's
// aggregated liveness. Every session runs the same fixed timers (50 ms
// hellos, down after 3 missed): both halves of a session belong to one
// Engine, so there is nothing to negotiate.
//
// The engine is the fast half of the failover subsystem: where the SNMP
// poller notices a dead link only once EWMA'd counters stop moving (poll
// timescale, seconds), a BFD session misses detectMult consecutive hellos
// and reports the failure in a few tx intervals (milliseconds). Detected
// transitions surface through the OnDown/OnUp callbacks, which
// controller.NewSim wires straight into the controller's typed event
// pipeline — bypassing the poll path entirely.
//
// Everything runs on the event.Scheduler and draws randomness from
// per-endpoint seeded PRNGs, so runs are deterministic and byte-identical
// at any worker-pool width (BFD events are plain sequential events).
//
// On an established session a hello changes nothing: both ends are Up,
// each hears Up and re-arms a detection timer the next hello cancels. So
// such a session goes quiet. Once both ends are Up, the link is up, every
// hello in flight carries Up and each end's next hello is due before its
// detection timer, the session cancels its tx, delivery and detection
// events and keeps, per end, only the hellos in flight, the next tx
// instant and the PRNG that draws the interval after it. Nothing but a
// link change can disturb it, and SetLinkState wakes it: the engine
// replays the quiet hellos up to now (counting each sent and heard one,
// putting the rest back in flight), re-arms each end's detection timer
// from the last hello it heard, and hands the session back to the
// event-driven state machine. A hello due at the change instant, to be
// sent or to arrive, comes after the change. Stats replays the same way.
// The result is the engine that handles every hello as three scheduler
// events (kept in reference_test.go), minus those events.
//
// While awake, a hello is those three events — the sender's next tx tick,
// the delivery, the receiver's re-armed detection timer: each endpoint
// binds the three event bodies once at Start, and because a link's delay
// is constant its hellos arrive in send order, so what a packet in flight
// carries rides a FIFO per direction and the delivery event pops it.
package bfd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// State is a session endpoint's RFC 5880 state.
type State uint8

const (
	// StateDown: no recent hello from the peer (or never any).
	StateDown State = iota
	// StateInit: we hear the peer, but it does not yet hear us.
	StateInit
	// StateUp: two-way liveness established.
	StateUp
)

// String names the state for logs.
func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateInit:
		return "init"
	case StateUp:
		return "up"
	}
	return "unknown"
}

// The hello timers. txInterval is the desired transmit interval; actual
// transmissions are jittered to 75–100% of it (RFC 5880 §6.8.7), so
// sessions never phase-lock. A session end that hears nothing for
// detectMult intervals declares the session down.
const (
	txInterval = 50 * time.Millisecond
	detectMult = 3
)

// Config parameterises an Engine.
type Config struct {
	// Seed drives the per-endpoint jitter PRNGs.
	Seed int64
}

// Flap damping: every session down adds flapPenalty to a decaying penalty
// (half-life penaltyHalfLife); while the penalty is at or above
// suppressAt, up-notifications are withheld until it decays below
// reuseBelow. Down-notifications are never suppressed — a consumer must
// always learn the link is gone. A single failure never suppresses, rapid
// repeated flaps do.
const (
	flapPenalty     = 1000.0
	suppressAt      = 2000.0
	reuseBelow      = 750.0
	penaltyHalfLife = 8 * time.Second
)

// Stats counts what the engine has seen and reported.
type Stats struct {
	Sessions      int
	PacketsTx     uint64
	PacketsRx     uint64
	DownEvents    uint64 // OnDown notifications emitted
	UpEvents      uint64 // OnUp notifications emitted
	SuppressedUps uint64 // up transitions withheld by flap damping
}

// Engine runs one liveness session per symmetric router-router link of a
// topology. Construct with New, wire the callbacks, then Start; report
// link changes through SetLinkState.
type Engine struct {
	topo  *topo.Topology
	sched *event.Scheduler
	cfg   Config

	// OnDown fires when a session that had been announced up loses
	// liveness; the link is the session's canonical (lower-ID) half.
	// Never suppressed by damping.
	OnDown func(topo.Link)
	// OnUp fires when liveness returns (subject to flap damping). The
	// first-ever establishment of a session is not announced: the link
	// was never reported down.
	OnUp func(topo.Link)

	down     []bool     // by directed LinkID: the link drops packets
	sessions []*Session // by directed LinkID, both halves; nil off sessions
	stats    Stats
	started  bool
}

// New builds an engine over the topology's router-router links.
func New(t *topo.Topology, sched *event.Scheduler, cfg Config) *Engine {
	return &Engine{
		topo:     t,
		sched:    sched,
		cfg:      cfg,
		down:     make([]bool, t.NumLinks()),
		sessions: make([]*Session, t.NumLinks()),
	}
}

// Start creates the sessions and begins transmitting hellos. Idempotent.
func (e *Engine) Start() {
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
		s := &Session{eng: e, link: l}
		seed := e.cfg.Seed*1_000_003 + int64(l.ID)
		s.a.init(s, l, &s.b, seed*2+1)
		s.b.init(s, e.topo.Link(l.Reverse), &s.a, seed*2+2)
		e.sessions[l.ID], e.sessions[l.Reverse] = s, s
		e.stats.Sessions++
		s.a.armTx()
		s.b.armTx()
	}
}

// SetLinkState fails or heals both directions of the link with the given
// ID (either half): the transport ground truth the hellos cross. Call it
// at the instant the link changes. A quiet session on the link wakes
// first, so the hellos due at this instant come after the change.
func (e *Engine) SetLinkState(id topo.LinkID, up bool) {
	if id < 0 || int(id) >= len(e.down) {
		return
	}
	if s := e.sessions[id]; s != nil && s.quiet {
		s.wake()
	}
	e.down[id] = !up
	if r := e.topo.Link(id).Reverse; r != topo.NoLink {
		e.down[r] = !up
	}
}

// Stats returns the engine's counters. A quiet session's hellos count as
// they would have fired: sent or heard once their instant is before Now.
func (e *Engine) Stats() Stats {
	now := e.sched.Now()
	for _, s := range e.sessions { // each session twice: a replay to now is idempotent
		if s != nil && s.quiet {
			s.a.replay(now)
			s.b.replay(now)
		}
	}
	return e.stats
}

// Session returns the session covering the given directed link (either
// half of the pair), if one exists.
func (e *Engine) Session(id topo.LinkID) (*Session, bool) {
	if id < 0 || int(id) >= len(e.sessions) || e.sessions[id] == nil {
		return nil, false
	}
	return e.sessions[id], true
}

// Session is the liveness session over one symmetric link: two endpoint
// halves plus the aggregated, damped link verdict.
type Session struct {
	eng  *Engine
	link topo.Link // canonical (lower-ID) half
	a, b endpoint  // a transmits on link.ID, b on link.Reverse

	up        bool // both endpoints Up
	everUp    bool // handshake completed at least once
	announced bool // what the consumer believes (true after first up)
	quiet     bool // no hello event scheduled (see the package comment)

	penalty    float64       // decaying flap penalty
	penaltyAt  time.Duration // instant penalty was last folded
	suppressed bool          // an up-announcement is pending decay
}

// Link returns the session's canonical link.
func (s *Session) Link() topo.Link { return s.link }

// Up reports the aggregated (undamped) liveness verdict.
func (s *Session) Up() bool { return s.up }

// States returns both endpoints' states (the link.From side first).
func (s *Session) States() (State, State) { return s.a.state, s.b.state }

// Suppressed reports whether flap damping is currently withholding an
// up-announcement.
func (s *Session) Suppressed() bool { return s.suppressed }

// endpoint is one half of a session: it transmits hellos on its directed
// link and runs the RFC 5880 state machine on what it hears back.
type endpoint struct {
	sess  *Session
	out   topo.LinkID   // directed link toward the peer
	delay time.Duration // out's propagation delay
	peer  *endpoint
	rng   *rand.Rand

	state  State
	nextTx time.Duration // instant of the next hello
	heard  time.Duration // instant the last hello from the peer arrived
	// tx and detect are the next hello's event and the detection timer
	// armed when the last one was heard; a quiet session has neither.
	tx, detect event.Handle

	// inFlight holds every hello sent and not yet delivered, oldest
	// first; the three funcs are the endpoint's event bodies, bound once
	// so that scheduling one allocates nothing.
	inFlight event.Ring[hello]
	onTx     func()
	onArrive func()
	onDetect func()
}

// hello is one control packet in flight: the state its sender had, when
// it was sent, and its delivery event (none while the session is quiet).
type hello struct {
	state State
	sent  time.Duration
	ev    event.Handle
}

func (ep *endpoint) init(s *Session, out topo.Link, peer *endpoint, seed int64) {
	ep.sess, ep.out, ep.delay, ep.peer = s, out.ID, out.Delay, peer
	ep.rng = rand.New(rand.NewSource(seed))
	ep.onTx, ep.onArrive, ep.onDetect = ep.txTick, ep.arrive, ep.detectExpired
}

// transition applies RFC 5880 §6.8.6's three-state machine to a received
// remote state. Detection timeouts are handled separately (detectExpired)
// and always force StateDown.
func transition(local, remote State) State {
	switch local {
	case StateDown:
		switch remote {
		case StateDown:
			return StateInit // the peer hears nothing yet; we hear it
		case StateInit:
			return StateUp // the peer hears us; two-way confirmed
		default:
			return StateDown // remote Up without a handshake: ignore
		}
	case StateInit:
		if remote == StateInit || remote == StateUp {
			return StateUp
		}
		return StateInit
	default: // StateUp
		if remote == StateDown {
			return StateDown // the peer lost us; drop immediately
		}
		return StateUp
	}
}

// interval draws the gap to the next hello, 75–100% of the tx interval
// (RFC 5880 §6.8.7 jitter), from this endpoint's deterministic PRNG.
func (ep *endpoint) interval() time.Duration {
	return time.Duration((0.75 + 0.25*ep.rng.Float64()) * float64(txInterval))
}

// armTx schedules the first hello one jittered interval from now.
func (ep *endpoint) armTx() {
	ep.nextTx = ep.sess.eng.sched.Now() + ep.interval()
	ep.tx = ep.sess.eng.sched.At(ep.nextTx, ep.onTx)
}

func (ep *endpoint) txTick() {
	ep.transmit()
	ep.nextTx += ep.interval()
	ep.tx = ep.sess.eng.sched.At(ep.nextTx, ep.onTx)
}

// transmit sends one control packet toward the peer. A failed link eats
// the packet — that is exactly how the peer's detection timer learns of
// the failure.
func (ep *endpoint) transmit() {
	eng := ep.sess.eng
	eng.stats.PacketsTx++
	if eng.down[ep.out] {
		return
	}
	now := eng.sched.Now()
	ep.inFlight.Push(hello{state: ep.state, sent: now, ev: eng.sched.At(now+ep.delay, ep.onArrive)})
}

// arrive is the far end of transmit: the oldest hello in flight reaches
// the peer, carrying the state it was sent with.
func (ep *endpoint) arrive() {
	sent := ep.inFlight.Pop()
	if ep.sess.eng.down[ep.out] {
		return // the link failed while the packet was in flight
	}
	ep.peer.receive(sent.state)
}

// receive runs the state machine on the state a heard packet was sent
// with, re-arms the detection timer and lets the session go quiet.
func (ep *endpoint) receive(sent State) {
	eng := ep.sess.eng
	eng.stats.PacketsRx++
	ep.heard = eng.sched.Now()
	ep.setState(transition(ep.state, sent))
	eng.sched.Cancel(ep.detect)
	ep.detect = eng.sched.At(ep.heard+eng.DetectTime(), ep.onDetect)
	ep.sess.quieten()
}

func (ep *endpoint) detectExpired() { ep.setState(StateDown) }

func (ep *endpoint) setState(next State) {
	if next == ep.state {
		return
	}
	ep.state = next
	ep.sess.refresh()
}

// quieten puts the session to sleep once no hello can change it: both
// ends Up, the link up in both directions, and each end's hellos — in
// flight and to come — carrying Up and reaching the peer before its
// detection timer fires. It cancels every hello event; wake replays them.
func (s *Session) quieten() {
	eng := s.eng
	if !s.up || eng.down[s.a.out] || eng.down[s.b.out] || !s.a.steady() || !s.b.steady() {
		return
	}
	for _, ep := range [2]*endpoint{&s.a, &s.b} {
		eng.sched.Cancel(ep.tx)
		eng.sched.Cancel(ep.detect)
		for i := range ep.inFlight.Len() {
			eng.sched.Cancel(ep.inFlight.At(i).ev)
		}
	}
	s.quiet = true
}

// steady reports whether every hello ep has in flight carries Up and each
// of them, then the next one ep sends, arrives within a detection time of
// the one the peer heard before it. Later hellos are at most a tx
// interval apart, so on a live link the peer's detection timer never
// fires.
func (ep *endpoint) steady() bool {
	detect, last := ep.sess.eng.DetectTime(), ep.peer.heard
	for i := range ep.inFlight.Len() {
		h := ep.inFlight.At(i)
		if h.state != StateUp || h.sent+ep.delay-last >= detect {
			return false
		}
		last = h.sent + ep.delay
	}
	return ep.nextTx+ep.delay-last < detect
}

// replay runs a quiet ep's hellos up to now as the event-driven engine
// would have: each one sent before now counts, each one that arrived
// before now is heard, the rest stay in flight. They all carry Up and the
// link is up, so nothing else changes.
func (ep *endpoint) replay(now time.Duration) {
	eng := ep.sess.eng
	for {
		for ep.inFlight.Len() > 0 && ep.inFlight.Peek().sent+ep.delay < now {
			eng.stats.PacketsRx++
			ep.peer.heard = ep.inFlight.Pop().sent + ep.delay
		}
		if ep.nextTx >= now {
			return
		}
		eng.stats.PacketsTx++
		ep.inFlight.Push(hello{state: StateUp, sent: ep.nextTx})
		ep.nextTx += ep.interval()
	}
}

// wake replays a quiet session up to now and schedules what is left: the
// hellos in flight, each end's next hello and its detection timer, armed
// from the last hello it heard. Everything due at now fires after the
// caller's event.
func (s *Session) wake() {
	sched := s.eng.sched
	now := sched.Now()
	s.a.replay(now)
	s.b.replay(now)
	for _, ep := range [2]*endpoint{&s.a, &s.b} {
		for i := range ep.inFlight.Len() {
			h := ep.inFlight.At(i)
			h.ev = sched.At(h.sent+ep.delay, ep.onArrive)
		}
		ep.tx = sched.At(ep.nextTx, ep.onTx)
		ep.detect = sched.At(ep.heard+s.eng.DetectTime(), ep.onDetect)
	}
	s.quiet = false
}

// refresh recomputes the session's aggregated liveness and emits the
// engine callbacks on transitions, applying flap damping to
// up-announcements.
func (s *Session) refresh() {
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

func (s *Session) announceUp() {
	s.suppressed = false
	s.announced = true
	s.eng.stats.UpEvents++
	if s.eng.OnUp != nil {
		s.eng.OnUp(s.link)
	}
}

// scheduleReuse re-examines a damped session once the penalty will have
// decayed below the reuse threshold.
func (s *Session) scheduleReuse(now time.Duration) {
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

func (s *Session) decayedPenalty(now time.Duration) float64 {
	if s.penalty == 0 {
		return 0
	}
	dt := now - s.penaltyAt
	return s.penalty * math.Exp2(-float64(dt)/float64(penaltyHalfLife))
}

func (s *Session) addPenalty(now time.Duration) {
	s.penalty = s.decayedPenalty(now) + flapPenalty
	s.penaltyAt = now
}

// DetectTime reports the engine's detection time, detectMult ×
// txInterval: how long a session end waits after the last hello it heard
// before it declares the session down.
func (e *Engine) DetectTime() time.Duration { return detectMult * txInterval }

// String renders a compact engine summary for logs.
func (e *Engine) String() string {
	return fmt.Sprintf("bfd: %d sessions, detect %v", e.stats.Sessions, e.DetectTime())
}
