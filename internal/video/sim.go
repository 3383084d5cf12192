package video

import (
	"math"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/netsim"
)

// SimSession is one viewer's player bound to a fluid-simulator flow: at
// every tick of the SessionPool that attached it, the player is credited
// with the bytes the flow delivered and advances playback in virtual time.
// This is how the Figure 2 scenario measures smooth vs. stuttering
// playback deterministically.
//
// A session is a demand source: it joins the traffic plane by flow ID and
// its pool polls delivered volume through netsim.DeliveredInto — it never
// holds flow or aggregate state itself.
type SimSession struct {
	// Player is the session's playback state. Until Stop it is shared
	// with every session of the pool that has played in lockstep with
	// this one so far: read it, never write it.
	Player *Player

	flow   netsim.FlowID
	cohort *cohort
	done   bool
}

// Stop halts the session (e.g. when the flow ends): its QoE freezes at
// the pool's last tick. A session that shared its player with live ones
// takes its own copy, so they play on; the last live member of a cohort
// keeps the cohort's player, which no tick credits again.
func (s *SimSession) Stop() {
	if s.done {
		return
	}
	s.done = true
	if s.cohort.live--; s.cohort.live > 0 {
		p := *s.Player
		s.Player = &p
	}
}

// QoE returns the session's playback metrics so far.
func (s *SimSession) QoE() QoE { return s.Player.QoE() }

// cohort is a group of sessions in lockstep: one player state, last
// delivery reading and last tick instant for all of its members. Sessions
// that join at one instant with one bitrate start in one cohort, and a
// tick splits a cohort only where its members' readings differ: equal
// readings credit equal states equally, so every member's player is, bit
// for bit, the one it would have alone.
type cohort struct {
	player   Player
	lastSeen float64
	lastAt   time.Duration
	ticked   bool // a tick has credited it: no later Attach joins it

	members []*SimSession
	live    int // members not stopped
	// one is members' array while the cohort has a single member, so a
	// lone session costs its SimSession and this cohort, nothing more.
	one [1]*SimSession
}

func (c *cohort) add(s *SimSession) {
	if c.members == nil {
		c.members = c.one[:0]
	}
	c.members = append(c.members, s)
	c.live++
	s.cohort, s.Player = c, &c.player
}

// credit hands the player what the members' flows delivered since the last
// reading (nothing once the flows have finished, read as -1) and advances
// playback to now.
func (c *cohort) credit(delivered float64, now time.Duration) {
	if delivered >= 0 {
		if d := delivered - c.lastSeen; d > 0 {
			c.player.OnDownloadedBytes(d)
		}
		c.lastSeen = delivered
	}
	c.player.Advance(now - c.lastAt)
	c.lastAt = now
	c.ticked = true
}

// SessionPool drives any number of SimSessions from one shared ticker and
// one read of the fluid model per tick (netsim.DeliveredInto: one advance,
// one call), then runs one player per cohort of sessions in lockstep: the
// per-viewer cost is a slice read and a comparison, with no per-session
// scheduler events and no per-session player advance. This is what keeps
// 100k-viewer flash crowds inside the event budget.
type SessionPool struct {
	sched   *event.Scheduler
	net     *netsim.Network
	cohorts []*cohort

	// flows lists every live member's flow, cohort by cohort, and read
	// their readings; both are rebuilt per tick. groups is tick's
	// scratch for splitting a cohort by reading.
	flows  []netsim.FlowID
	read   []float64
	groups map[uint64]*cohort
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

// tick compacts stopped sessions and emptied cohorts out in place, so a
// departed crowd stops costing anything (the QoE lives on in whoever kept
// the session from Attach), then reads every live member and credits each
// cohort, split where its readings differ. The ticker itself stays armed
// because Attach may add sessions later, and an empty pool's tick is a
// no-op.
func (p *SessionPool) tick() {
	live, flows := p.cohorts[:0], p.flows[:0]
	for _, c := range p.cohorts {
		if c.live == 0 {
			continue
		}
		if c.live < len(c.members) {
			kept := c.members[:0]
			for _, s := range c.members {
				if !s.done {
					kept = append(kept, s)
				}
			}
			clear(c.members[len(kept):])
			c.members = kept
		}
		for _, s := range c.members {
			flows = append(flows, s.flow)
		}
		live = append(live, c)
	}
	clear(p.cohorts[len(live):])
	p.cohorts, p.flows = live, flows
	p.read = p.net.DeliveredInto(flows, p.read)
	// Cohorts split off below are appended past live and credited as
	// they form.
	now := p.sched.Now()
	read := p.read
	for _, c := range live {
		n := len(c.members)
		p.tickCohort(c, read[:n], now)
		read = read[n:]
	}
}

// tickCohort credits one cohort with its members' readings. When they
// all agree, the cohort is credited once; otherwise each further reading,
// in member order, takes its members off into a new cohort that starts
// from a copy of the state before the tick, and every cohort is credited
// with its own reading.
func (p *SessionPool) tickCohort(c *cohort, read []float64, now time.Duration) {
	first := math.Float64bits(read[0])
	i := 1
	for i < len(read) && math.Float64bits(read[i]) == first {
		i++
	}
	if i < len(read) {
		if p.groups == nil {
			p.groups = make(map[uint64]*cohort)
		}
		p.groups[first] = c
		kept := c.members[:i]
		for j := i; j < len(read); j++ {
			s, bits := c.members[j], math.Float64bits(read[j])
			g := p.groups[bits]
			switch g {
			case c:
				kept = append(kept, s)
				continue
			case nil:
				g = &cohort{player: c.player, lastSeen: c.lastSeen, lastAt: c.lastAt}
				g.credit(read[j], now)
				p.groups[bits] = g
				p.cohorts = append(p.cohorts, g)
			}
			g.add(s)
		}
		clear(p.groups)
		clear(c.members[len(kept):])
		c.members, c.live = kept, len(kept)
	}
	c.credit(read[0], now)
}

// Attach joins a new session for the flow to the pool and returns it. A
// session attached at the instant a cohort of its bitrate was formed, with
// no tick in between, joins that cohort: both players would start from
// the same state.
func (p *SessionPool) Attach(flow netsim.FlowID, bitrate float64) *SimSession {
	now := p.sched.Now()
	s := &SimSession{flow: flow}
	for i := len(p.cohorts) - 1; i >= 0; i-- {
		c := p.cohorts[i]
		if c.ticked || c.lastAt != now {
			break // cohorts formed since the last tick sit at the end
		}
		// A cohort whose members all stopped holds their frozen player.
		if c.player.Bitrate == bitrate && c.live > 0 {
			c.add(s)
			return s
		}
	}
	c := &cohort{player: *NewPlayer(bitrate), lastAt: now}
	c.add(s)
	p.cohorts = append(p.cohorts, c)
	return s
}

// Len returns the number of sessions still ticking: attached and not
// stopped.
func (p *SessionPool) Len() int {
	n := 0
	for _, c := range p.cohorts {
		n += c.live
	}
	return n
}
