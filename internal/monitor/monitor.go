// Package monitor implements the controller's link-load monitoring: a
// periodic SNMP poller that converts interface octet counters into rates,
// smooths them with an EWMA, and raises/clears utilisation alarms with
// hysteresis. This is the "monitors link loads using SNMP" component of
// the paper's demo setup.
//
// A poll reads every watched counter up front — snmp.Client.GetCounters,
// a few dozen counters per GET — and then walks the links in watch-list
// order over the values. The counters are functions of the instant, so an
// alarm handler that reroutes traffic mid-walk changes nothing the walk
// still has to read; a quiet poll costs its requests, not its links.
package monitor

import (
	"fmt"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
)

// WatchedLink declares one directed link to poll.
type WatchedLink struct {
	Link     topo.LinkID
	OID      snmp.OID // octet counter to poll (ifOutOctets/ifHCOutOctets)
	Capacity float64  // bit/s, for utilisation
	Name     string   // for reports
}

// LinkLoad is one link's smoothed load at a poll instant.
type LinkLoad struct {
	Link        topo.LinkID
	Name        string
	RateBps     float64 // smoothed, bits per second
	Utilisation float64 // RateBps / Capacity (0 if uncapacitated)
}

// Report is one poll cycle's output.
type Report struct {
	At    time.Duration
	Loads []LinkLoad
}

// MaxUtilisation returns the highest utilisation in the report.
func (r Report) MaxUtilisation() (LinkLoad, bool) {
	var best LinkLoad
	found := false
	for _, l := range r.Loads {
		if !found || l.Utilisation > best.Utilisation {
			best = l
			found = true
		}
	}
	return best, found
}

// Alarm signals a link crossing the utilisation thresholds.
type Alarm struct {
	Link        topo.LinkID
	Name        string
	Utilisation float64
	// Raised is true when the link went above the high threshold, false
	// when it dropped below the low threshold.
	Raised bool
}

// The detection policy. Every program polls with it: a poll every
// pollInterval, an EWMA with weight ewmaAlpha on the newest rate, an alarm
// raised after raiseAfter consecutive polls at or above the high
// threshold and cleared after clearAfter consecutive polls at or below
// lowThreshold (the gap between the two is the hysteresis that keeps an
// alarm from flapping). While an alarm stays raised it re-fires on every
// repeatEvery-th consecutive hot poll, so the controller learns that its
// last reaction was insufficient (or a new surge hit the same link).
const (
	pollInterval = 2 * time.Second
	ewmaAlpha    = 0.7
	lowThreshold = 0.1
	raiseAfter   = 1
	clearAfter   = 2
	repeatEvery  = 2
)

// Config parameterises a Poller. The rest of the detection policy is
// fixed (see pollInterval).
type Config struct {
	// HighThreshold raises an alarm (default 0.85).
	HighThreshold float64
}

func (c Config) withDefaults() Config {
	if c.HighThreshold <= 0 {
		c.HighThreshold = 0.85
	}
	return c
}

// Poller drives periodic SNMP polls inside a virtual-time scheduler.
type Poller struct {
	client *snmp.Client
	sched  *event.Scheduler
	cfg    Config
	links  []WatchedLink

	// OnReport fires after every poll cycle that read a rate. A poll
	// builds its Report only while OnReport is set (read once per poll).
	OnReport func(Report)
	// OnAlarm fires on threshold crossings (after hysteresis).
	OnAlarm func(Alarm)

	// Parallel to links: the OIDs handed to GetCounters, what it read,
	// and each link's rate and alarm state.
	oids   []snmp.OID
	counts []uint64
	errs   []error
	state  []linkState
	ticker *event.Ticker
	// Errors keeps the first maxPollErrors poll failures for diagnosis
	// (an unreachable agent must not kill the loop — nor, over a long
	// run, grow an unbounded error list). PollFailures counts every
	// failure regardless.
	Errors []error
	// PollFailures counts failed link polls over the poller's lifetime.
	PollFailures metrics.Counter
}

// maxPollErrors bounds the retained error list: an agent that stays
// unreachable fails every link on every tick, and a multi-day run must
// not turn that into gigabytes of identical errors. The counter keeps
// the true total.
const maxPollErrors = 32

type linkState struct {
	last     uint64
	lastAt   time.Duration
	seeded   bool
	ewma     metrics.EWMA
	raised   bool
	hiStreak int
	loStreak int
}

// NewPoller builds a poller; call Start to begin polling.
func NewPoller(client *snmp.Client, sched *event.Scheduler, cfg Config, links []WatchedLink) *Poller {
	p := &Poller{
		client: client,
		sched:  sched,
		cfg:    cfg.withDefaults(),
		links:  links,
		oids:   make([]snmp.OID, len(links)),
		counts: make([]uint64, len(links)),
		errs:   make([]error, len(links)),
		state:  make([]linkState, len(links)),
	}
	for i, l := range links {
		p.oids[i] = l.OID
		p.state[i].ewma.Alpha = ewmaAlpha
	}
	return p
}

// Start begins polling on the scheduler.
func (p *Poller) Start() {
	if p.ticker != nil {
		return
	}
	p.ticker = p.sched.NewTicker(pollInterval, p.poll)
}

// Stop halts polling.
func (p *Poller) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
}

func (p *Poller) poll() {
	now := p.sched.Now()
	p.client.GetCounters(p.oids, p.counts, p.errs)
	listen := p.OnReport != nil
	var loads []LinkLoad
	if listen {
		loads = make([]LinkLoad, 0, len(p.links))
	}
	for i, wl := range p.links {
		st := &p.state[i]
		count, err := p.counts[i], p.errs[i]
		if err != nil {
			p.PollFailures.Add(1)
			if len(p.Errors) < maxPollErrors {
				p.Errors = append(p.Errors, fmt.Errorf("monitor: poll %s: %w", wl.Name, err))
			}
			continue
		}
		if !st.seeded {
			st.last, st.lastAt, st.seeded = count, now, true
			continue
		}
		rate := metrics.Rate(st.last, count, now-st.lastAt) * 8 // octets -> bits
		st.last, st.lastAt = count, now
		smoothed := st.ewma.Update(rate)
		util := 0.0
		if wl.Capacity > 0 {
			util = smoothed / wl.Capacity
		}
		if listen {
			loads = append(loads, LinkLoad{
				Link: wl.Link, Name: wl.Name, RateBps: smoothed, Utilisation: util,
			})
		}
		p.updateAlarm(wl, st, util)
	}
	if listen && len(loads) > 0 {
		p.OnReport(Report{At: now, Loads: loads})
	}
}

func (p *Poller) updateAlarm(wl WatchedLink, st *linkState, util float64) {
	switch {
	case util >= p.cfg.HighThreshold:
		st.hiStreak++
		st.loStreak = 0
	case util <= lowThreshold:
		st.loStreak++
		st.hiStreak = 0
	default:
		st.hiStreak = 0
		st.loStreak = 0
	}
	if !st.raised && st.hiStreak >= raiseAfter {
		st.raised = true
		if p.OnAlarm != nil {
			p.OnAlarm(Alarm{Link: wl.Link, Name: wl.Name, Utilisation: util, Raised: true})
		}
	} else if st.raised && st.hiStreak > 0 && st.hiStreak%repeatEvery == 0 {
		if p.OnAlarm != nil {
			p.OnAlarm(Alarm{Link: wl.Link, Name: wl.Name, Utilisation: util, Raised: true})
		}
	}
	if st.raised && st.loStreak >= clearAfter {
		st.raised = false
		if p.OnAlarm != nil {
			p.OnAlarm(Alarm{Link: wl.Link, Name: wl.Name, Utilisation: util, Raised: false})
		}
	}
}

// WatchAllLinks builds the watch list for every capacitated router-router
// link of a topology, polling the 64-bit IF-MIB counters. It allocates per
// call, not per link: the OIDs are cut from one array and the names
// ("from-to") from one string.
func WatchAllLinks(t *topo.Topology) []WatchedLink {
	watched := func(l topo.Link) bool {
		return !t.Node(l.From).Host && !t.Node(l.To).Host && l.Capacity > 0
	}
	n, nameLen := 0, 0
	for id := range t.NumLinks() {
		if l := t.Link(topo.LinkID(id)); watched(l) {
			n++
			nameLen += len(t.Name(l.From)) + len("-") + len(t.Name(l.To))
		}
	}
	if n == 0 {
		return nil
	}
	var names strings.Builder
	names.Grow(nameLen)
	for id := range t.NumLinks() {
		if l := t.Link(topo.LinkID(id)); watched(l) {
			names.WriteString(t.Name(l.From))
			names.WriteByte('-')
			names.WriteString(t.Name(l.To))
		}
	}
	all := names.String()
	out := make([]WatchedLink, 0, n)
	arcs := make([]uint32, 0, n*(len(snmp.OIDIfHCOutOctets)+1))
	off := 0
	for id := range t.NumLinks() {
		l := t.Link(topo.LinkID(id))
		if !watched(l) {
			continue
		}
		start := len(arcs)
		arcs = append(append(arcs, snmp.OIDIfHCOutOctets...), snmp.IfIndex(l.ID))
		end := off + len(t.Name(l.From)) + len("-") + len(t.Name(l.To))
		out = append(out, WatchedLink{
			Link:     l.ID,
			OID:      arcs[start:len(arcs):len(arcs)],
			Capacity: l.Capacity,
			Name:     all[off:end],
		})
		off = end
	}
	return out
}
