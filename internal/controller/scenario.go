package controller

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/metrics"
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

	Sessions    []*video.SimSession
	ABRSessions []*video.ABRSimSession
}

// SimOpts parameterises NewSim.
type SimOpts struct {
	Topology   *topo.Topology // default: Fig1
	Prefix     string         // default: blue
	AttachAt   string         // controller PoP router, default R3
	WithCtrl   bool           // false disables the Fibbing controller
	Monitor    monitor.Config
	Controller Config
	// Strategies replaces the controller's stock strategy set (see
	// WithStrategies); nil keeps DefaultStrategies.
	Strategies   []Strategy
	SampleEvery  time.Duration // throughput series sampling, default 1s
	VideoSample  time.Duration // player tick, default 250ms
	TrackPlayers bool          // attach a SimSession per flow
	// ABR, when set, attaches adaptive-bitrate players instead of
	// fixed-rate ones (the ABR extension experiment).
	ABR *video.ABRConfig
	// Workers sets the scheduler's parallel-batch pool width: 0 means
	// GOMAXPROCS, 1 selects the pure sequential core. Output is
	// byte-identical either way; only wall-clock changes.
	Workers int
	// BFD enables per-link liveness sessions; link failures then reach
	// the controller as LinkDown/LinkUp events milliseconds after the
	// fact, instead of at SNMP-poll timescale. The zero Config is valid
	// (50ms hellos, detect multiplier 3): pass &bfd.Config{} to enable
	// with defaults.
	BFD *bfd.Config
	// StandbyK, with BFD, precomputes failover plans for the K links
	// carrying the highest aggregate rate (see WithStandby); 0 plans
	// every failure from scratch.
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
	s.Sched.SetWorkers(o.Workers)
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
	ctrlOpts := []Option{WithConfig(o.Controller), WithStrategies(o.Strategies...)}
	if o.BFD != nil && o.StandbyK > 0 {
		ctrlOpts = append(ctrlOpts, WithStandby(s.Sched, o.StandbyK))
	}
	s.Ctrl = New(s.Topo, s.Lies, s.Sched.Now, ctrlOpts...)
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
		// the IGP transport honours, and feed the controller directly —
		// the fast path past both the SNMP poller and the dead interval.
		s.BFD = bfd.New(s.Topo, s.Sched, *o.BFD)
		s.BFD.Blocked = s.Domain.LinkBlocked
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
	switch {
	case o.ABR != nil:
		pool := video.NewABRSessionPool(s.Sched, s.Net, *o.ABR)
		s.Runner.OnFlowStarted = func(id netsim.FlowID, _ float64) {
			s.ABRSessions = append(s.ABRSessions, pool.Attach(id))
		}
	case o.TrackPlayers:
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

// SetLinkState fails or heals a link in both the control plane (the IGP
// detects it through hello timeouts) and the data plane (flows crossing it
// are blocked until rerouted).
func (s *Sim) SetLinkState(a, b string, up bool) error {
	na, nb := s.Topo.MustNode(a), s.Topo.MustNode(b)
	if err := s.Domain.SetLinkState(na, nb, up); err != nil {
		return err
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

// ABRQoE collects adaptive sessions' metrics.
func (s *Sim) ABRQoE() []video.ABRQoE {
	out := make([]video.ABRQoE, len(s.ABRSessions))
	for i, sess := range s.ABRSessions {
		out[i] = sess.QoE()
	}
	return out
}

// RunFig2ABR runs the Figure 2 timeline with adaptive-bitrate players:
// the ABR extension experiment. The wave rate is the ladder's top rung so
// the controller's demand model plans for full-quality delivery.
func RunFig2ABR(withController bool, until time.Duration, cfg video.ABRConfig) (*Sim, video.ABRAggregate, error) {
	if until <= 0 {
		until = 60 * time.Second
	}
	sim, err := NewSim(SimOpts{WithCtrl: withController, ABR: &cfg})
	if err != nil {
		return nil, video.ABRAggregate{}, err
	}
	ladder := cfg.Ladder
	if len(ladder) == 0 {
		ladder = video.DefaultLadder
	}
	top := ladder[len(ladder)-1]
	if err := sim.Runner.Schedule(flashcrowd.Fig2Schedule(top)); err != nil {
		return nil, video.ABRAggregate{}, err
	}
	sim.Run(until)
	return sim, video.AggregateABRQoE(sim.ABRQoE()), nil
}

// Fig2Result is everything the Figure 2 experiment reports.
type Fig2Result struct {
	// Series holds the byte/s throughput of the figure's three links:
	// A-R1, B-R2, B-R3.
	Series []*metrics.Series
	// QoE per video session (empty if players were not tracked).
	QoE []video.QoE
	// Decisions taken by the controller.
	Decisions []Decision
	// Lies live at the end of the run.
	LiveLies int
	// MaxUtilisation at the end of the run.
	MaxUtilisation float64
	// ProtocolStats from the IGP.
	ProtocolStats ospf.ControlPlaneStats
}

// RunFig2 executes the paper's Figure 2 timeline: one video flow from S1
// (behind B) at t=0, thirty more at t=15 s, thirty-one from S2 (behind A)
// at t=35 s, measured until `until` (default 60 s). With the controller
// enabled the maximum link load stays bounded as fake nodes add paths;
// without it, the B-R2 path saturates and playback stutters.
func RunFig2(withController bool, until time.Duration, videoRate float64) (*Sim, *Fig2Result, error) {
	if until <= 0 {
		until = 60 * time.Second
	}
	sim, err := NewSim(SimOpts{WithCtrl: withController, TrackPlayers: true})
	if err != nil {
		return nil, nil, err
	}
	if err := sim.Runner.Schedule(flashcrowd.Fig2Schedule(videoRate)); err != nil {
		return nil, nil, err
	}
	sim.Run(until)

	res := &Fig2Result{
		QoE:            sim.QoE(),
		Decisions:      sim.Ctrl.Decisions,
		LiveLies:       sim.Lies.LieCount(),
		MaxUtilisation: sim.Net.MaxUtilisation(),
		ProtocolStats:  sim.Domain.Stats(),
	}
	for _, pair := range [][2]string{
		{topo.Fig1A, topo.Fig1R1},
		{topo.Fig1B, topo.Fig1R2},
		{topo.Fig1B, topo.Fig1R3},
	} {
		s, err := sim.Net.SeriesBetween(pair[0], pair[1])
		if err != nil {
			return nil, nil, err
		}
		res.Series = append(res.Series, s)
	}
	if len(sim.Domain.Errors) > 0 {
		return nil, nil, fmt.Errorf("controller: protocol errors: %v", sim.Domain.Errors)
	}
	return sim, res, nil
}
