package controller

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// Sim wires the full demo stack: topology, IGP domain, fluid data plane,
// SNMP agent + poller, flash-crowd generator, video sessions, and the
// Fibbing controller attached at R3 (as in the paper's setup).
type Sim struct {
	Topo   *topo.Topology
	Sched  *event.Scheduler
	Domain *ospf.Domain
	Net    *netsim.Network
	Poller *monitor.Poller
	Lies   *southbound.LieManager
	Ctrl   *Controller
	Runner *flashcrowd.Runner
	// BFD is the liveness engine (nil unless SimOpts.BFD enables it).
	BFD *bfd.Engine

	Sessions []*video.SimSession
}

// SimOpts parameterises NewSim.
type SimOpts struct {
	Topology     *topo.Topology // default: Fig1
	Prefix       string         // default: blue
	AttachAt     string         // controller PoP router, default R3
	WithCtrl     bool           // false disables the Fibbing controller
	Monitor      monitor.Config
	Controller   Config
	SampleEvery  time.Duration // counter advance and series sampling, default 1s
	VideoSample  time.Duration // player tick, default 250ms
	TrackPlayers bool          // attach a SimSession per flow
	// BFD enables per-link liveness sessions; link failures then reach
	// the controller as LinkDown/LinkUp events milliseconds after the
	// fact, instead of at SNMP-poll timescale. The timers are fixed
	// (50ms hellos, detect multiplier 3) and Config only seeds the
	// jitter: pass &bfd.Config{} to enable.
	BFD *bfd.Config
	// Deprecated: no effect (always zero); kept only because bench/
	// reads it until ROADMAP item 1.
	StandbyK int
}

// NewSim assembles the emulation. The IGP starts immediately; flows can
// be scheduled through the Runner before calling Run.
func NewSim(o SimOpts) (*Sim, error) {
	if o.Topology == nil {
		o.Topology = topo.Fig1(topo.Fig1Opts{})
	}
	if o.Prefix == "" {
		o.Prefix = topo.Fig1BluePrefixName
	}
	if o.AttachAt == "" {
		o.AttachAt = topo.Fig1R3
	}

	s := &Sim{Topo: o.Topology, Sched: event.NewScheduler()}
	s.Net = netsim.New(s.Topo, s.Sched, o.SampleEvery)
	s.Domain = ospf.NewDomain(s.Topo, s.Sched, ospf.Config{})
	// The delta pipeline end to end: routers emit FIB diffs, the data
	// plane re-paths only flows whose destinations actually changed.
	s.Domain.OnFIBDelta = func(n topo.NodeID, t *fib.Table, d *fib.Diff) { s.Net.ApplyDiff(n, t, d) }

	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, s.Net, topo.NoNode)
	agent := snmp.NewAgent("public", mib)
	client := snmp.NewClient(snmp.DirectTransport{Agent: agent}, "public")
	s.Poller = monitor.NewPoller(client, s.Sched, o.Monitor, monitor.WatchAllLinks(s.Topo))

	attach, ok := s.Topo.NodeByName(o.AttachAt)
	if !ok {
		return nil, fmt.Errorf("controller: unknown attach router %q", o.AttachAt)
	}
	pop := s.Domain.Router(attach)
	if pop == nil {
		return nil, fmt.Errorf("controller: attach node %q is not a router", o.AttachAt)
	}
	s.Lies = southbound.NewLieManager(southbound.DirectInjector{Router: pop}, ospf.ControllerIDBase)
	s.Ctrl = New(s.Topo, s.Lies, s.Sched.Now, WithConfig(o.Controller))
	if o.WithCtrl {
		// The monitor's bare callback becomes a typed controller event.
		s.Poller.OnAlarm = func(a monitor.Alarm) { s.Ctrl.Handle(AlarmEvent(a)) }
		// Participating in IGP flooding, the controller learns topology
		// changes at dead-interval timescale; the controller dedupes the
		// per-endpoint detections (and BFD's earlier announcement, when
		// enabled, wins the race).
		s.Domain.OnAdjacencyChange = func(l topo.Link, up bool) {
			if up {
				s.Ctrl.Handle(LinkUpEvent(l))
			} else {
				s.Ctrl.Handle(LinkDownEvent(l))
			}
		}
	}
	if o.BFD != nil {
		// Liveness sessions probe over the same administrative link state
		// the IGP transport honours (SetLinkState tells both), and feed
		// the controller directly — the fast path past both the SNMP
		// poller and the dead interval.
		s.BFD = bfd.New(s.Topo, s.Sched, *o.BFD)
		if o.WithCtrl {
			s.BFD.OnDown = func(l topo.Link) { s.Ctrl.Handle(LinkDownEvent(l)) }
			s.BFD.OnUp = func(l topo.Link) { s.Ctrl.Handle(LinkUpEvent(l)) }
		}
	}

	s.Runner = &flashcrowd.Runner{
		Net:    s.Net,
		Sched:  s.Sched,
		Prefix: o.Prefix,
		OnJoin: func(ingress topo.NodeID, rate float64) {
			s.Ctrl.Handle(DemandEvent(o.Prefix, ingress, rate))
		},
		OnLeave: func(ingress topo.NodeID, rate float64) {
			s.Ctrl.Handle(DemandEvent(o.Prefix, ingress, -rate))
		},
	}
	// Sessions attach through shared-ticker pools: one scheduler event
	// stream per sim instead of one per viewer, which is what lets the
	// flashcrowd-100k scale cells track every player's QoE.
	if o.TrackPlayers {
		pool := video.NewSessionPool(s.Sched, s.Net, o.VideoSample)
		s.Runner.OnFlowStarted = func(id netsim.FlowID, rate float64) {
			s.Sessions = append(s.Sessions, pool.Attach(id, rate))
		}
	}

	s.Domain.Start()
	s.Poller.Start()
	if s.BFD != nil {
		s.BFD.Start()
	}
	return s, nil
}

// Run advances virtual time to the given instant.
func (s *Sim) Run(until time.Duration) {
	s.Sched.RunUntil(until)
}

// SetLinkState fails or heals a link in the control plane (the IGP
// detects it through hello timeouts, BFD through missed hellos) and the
// data plane (flows crossing it are blocked until rerouted).
func (s *Sim) SetLinkState(a, b string, up bool) error {
	na, nb := s.Topo.MustNode(a), s.Topo.MustNode(b)
	if err := s.Domain.SetLinkState(na, nb, up); err != nil {
		return err
	}
	if s.BFD != nil {
		l, _ := s.Topo.FindLink(na, nb)
		s.BFD.SetLinkState(l.ID, up)
	}
	return s.Net.SetLinkState(na, nb, up)
}

// QoE collects all tracked sessions' playback metrics.
func (s *Sim) QoE() []video.QoE {
	out := make([]video.QoE, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = sess.QoE()
	}
	return out
}
