package scenarios

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// hotThreshold is the monitor's alarm threshold, set explicitly so the
// report's first-hot detection measures against the value the monitor uses.
const hotThreshold = 0.85

// flowTrack follows one flow through its life for delivery accounting.
type flowTrack struct {
	wave      int
	delivered float64 // bytes, high-water from sampling
	session   *video.SimSession
}

// cell is one scenario run in flight. RunWatched takes it through three
// steps — build, drive, collect — and hands the assembled simulation to
// its watcher between build and drive.
type cell struct {
	spec     Spec
	waves    []flashcrowd.Wave
	failures []FailureEvent
	sim      *controller.Sim
	rep      *Report

	// order and tracks are parallel: tracks[i] follows flow order[i].
	order  []netsim.FlowID
	tracks []*flowTrack
	// What drive's snapshots hand to collect: stall totals at the settle
	// start and around the failover window, and the settled demand set.
	stallAtSettle, stallAtFailure, stallAfterFailover float64
	demandsAtSettle                                   []topo.Demand
}

// Run executes one scenario with or without the Fibbing controller and
// returns its report. Each call builds a fresh topology and simulation,
// so concurrent Runs (the matrix test's parallel cells) are independent.
func Run(spec Spec, withCtrl bool) (*Report, error) {
	return RunWatched(spec, withCtrl, nil)
}

// RunWatched is Run with a caller between its build and drive steps:
// watch (nil for none) receives the assembled simulation — IGP started,
// nothing scheduled yet — and may arm its own tickers and callbacks or
// keep the simulation to read it after the run.
func RunWatched(spec Spec, withCtrl bool, watch func(*controller.Sim)) (*Report, error) {
	c, err := build(spec, withCtrl)
	if err != nil {
		return nil, err
	}
	if watch != nil {
		watch(c.sim)
	}
	if err := c.drive(); err != nil {
		return nil, err
	}
	return c.collect(), nil
}

// build validates the spec and assembles everything the run needs: the
// topology, the wave and failure schedules, the simulation (IGP started,
// nothing scheduled yet) and the empty report.
func build(spec Spec, withCtrl bool) (*cell, error) {
	spec = spec.withDefaults()
	if spec.Viewers < 0 {
		return nil, fmt.Errorf("%s: negative viewer count %d", spec.Name, spec.Viewers)
	}
	if spec.Viewers == 1 {
		// One session carries the whole 1.7x overload as a single
		// indivisible flow: no routing can spread it, so every
		// controller-beats-IGP invariant would fail by construction.
		return nil, fmt.Errorf("%s: a single viewer cannot be load-balanced; use Viewers >= 2", spec.Name)
	}
	if spec.Workload == "fig2" && spec.Topo.Family != "fig1" {
		return nil, fmt.Errorf("%s: the fig2 workload is the paper's demo and needs the fig1 topology", spec.Name)
	}
	tp, prefix, err := spec.Topo.Build()
	if err != nil {
		return nil, err
	}
	e, err := buildEnv(tp, prefix)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	e.viewers = spec.Viewers
	waves, err := buildWaves(spec.Workload, e, spec.Duration, spec.Seed)
	if err != nil {
		return nil, err
	}
	failures, err := buildFailures(spec.Failure, e, spec.Duration)
	if err != nil {
		return nil, err
	}
	// The schedules use absolute event times; a user-shortened duration
	// (fiblab -duration) that cuts events off would silently change the
	// scenario's meaning, so reject it instead.
	var lastEvent time.Duration
	for _, w := range waves {
		lastEvent = max(lastEvent, w.At)
	}
	for _, f := range failures {
		lastEvent = max(lastEvent, f.At)
	}
	if spec.Duration <= lastEvent {
		return nil, fmt.Errorf("%s: duration %v too short: last scheduled event at %v",
			spec.Name, spec.Duration, lastEvent)
	}

	p, _ := tp.PrefixByName(prefix)
	var bfdCfg *bfd.Config
	if spec.BFD {
		bfdCfg = &bfd.Config{Seed: spec.Seed}
	}
	sim, err := controller.NewSim(controller.SimOpts{
		Topology:     tp,
		Prefix:       prefix,
		AttachAt:     tp.Name(p.Attachments[0].Node),
		WithCtrl:     withCtrl,
		TrackPlayers: true,
		SampleEvery:  500 * time.Millisecond,
		VideoSample:  250 * time.Millisecond,
		Monitor:      monitor.Config{HighThreshold: hotThreshold},
		BFD:          bfdCfg,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	rep := &Report{
		Scenario:         spec.Name,
		Controller:       withCtrl,
		ScoreMode:        spec.ScoreMode,
		Duration:         spec.Duration,
		TargetPrefix:     prefix,
		FirstHotAt:       -1,
		FirstReactionAt:  -1,
		ReactionLatency:  -1,
		FailureAt:        -1,
		FailoverCommitAt: -1,
		FailoverLatency:  -1,
	}
	return &cell{spec: spec, waves: waves, failures: failures, sim: sim, rep: rep}, nil
}

// stallTotal sums the stall time of every session started so far.
func (c *cell) stallTotal() float64 {
	var s float64
	for _, sess := range c.sim.Sessions {
		s += sess.QoE().StallTime.Seconds()
	}
	return s
}

// readDelivered refreshes every live flow's delivery reading through one
// batched read of the fluid model (finished flows keep theirs).
func (c *cell) readDelivered(buf []float64) []float64 {
	buf = c.sim.Net.DeliveredInto(c.order, buf)
	for i, d := range buf {
		if d >= 0 {
			c.tracks[i].delivered = d
		}
	}
	return buf
}

// drive arms the run — flow tracking, the failure schedule, the samplers,
// the settle and failover snapshots, the waves — and advances virtual
// time to the end of the spec's duration.
func (c *cell) drive() error {
	sim, rep, waves := c.sim, c.rep, c.waves

	// Map started flows back to their wave: wave w contributes exactly
	// w.Flows OnFlowStarted callbacks at time w.At.
	waveQueue := make(map[time.Duration][]int)
	for i, w := range waves {
		for f := 0; f < w.Flows; f++ {
			waveQueue[w.At] = append(waveQueue[w.At], i)
		}
	}
	prevStarted := sim.Runner.OnFlowStarted
	sim.Runner.OnFlowStarted = func(id netsim.FlowID, rate float64) {
		if prevStarted != nil {
			prevStarted(id, rate) // attaches the video session
		}
		now := sim.Sched.Now()
		q := waveQueue[now]
		wi := -1
		if len(q) > 0 {
			wi, waveQueue[now] = q[0], q[1:]
		}
		tr := &flowTrack{wave: wi}
		if n := len(sim.Sessions); n > 0 {
			tr.session = sim.Sessions[n-1]
		}
		c.order, c.tracks = append(c.order, id), append(c.tracks, tr)
		// Departing viewers stop watching: freeze the session's QoE and
		// take a final delivery reading when the hold expires (the Runner
		// removes the flow at the same instant, after this event).
		if wi >= 0 && waves[wi].Hold > 0 {
			sim.Sched.After(waves[wi].Hold, func() {
				if d, ok := sim.Net.Delivered(id); ok {
					tr.delivered = d
				}
				if tr.session != nil {
					tr.session.Stop()
				}
			})
		}
	}

	// Failure schedule.
	for _, f := range c.failures {
		sim.Sched.At(f.At, func() {
			if err := sim.SetLinkState(f.A, f.B, f.Up); err != nil {
				rep.ProtocolErrors = append(rep.ProtocolErrors, err.Error())
			}
		})
	}

	// Samplers: utilisation peaks, first-hot detection, per-flow delivery.
	settleStart := c.spec.settleStart()
	var deliveredBuf []float64
	sim.Sched.NewTicker(250*time.Millisecond, func() {
		u := sim.Net.MaxUtilisation()
		rep.PeakUtilisation = max(rep.PeakUtilisation, u)
		now := sim.Sched.Now()
		if now >= settleStart {
			rep.SettledUtilisation = max(rep.SettledUtilisation, u)
		}
		if rep.FirstHotAt < 0 && u >= hotThreshold {
			rep.FirstHotAt = now
		}
		deliveredBuf = c.readDelivered(deliveredBuf)
	})
	sim.Sched.At(settleStart, func() {
		c.stallAtSettle = c.stallTotal()
		c.demandsAtSettle = sim.Ctrl.Demands()
	})

	// Failover window accounting: stall totals at the first link-down
	// instant and failoverWindow later bracket the stalls the failure
	// itself causes — the figure the fast-failover invariant compares.
	for _, f := range c.failures {
		if !f.Up {
			rep.FailureAt = f.At
			break
		}
	}
	if rep.FailureAt >= 0 {
		sim.Sched.At(rep.FailureAt, func() { c.stallAtFailure = c.stallTotal() })
		end := min(rep.FailureAt+failoverWindow, c.spec.Duration)
		sim.Sched.At(end, func() { c.stallAfterFailover = c.stallTotal() })
	}

	if err := sim.Runner.Schedule(waves); err != nil {
		return fmt.Errorf("%s: %w", c.spec.Name, err)
	}
	sim.Run(c.spec.Duration)
	return nil
}

// collect reads the finished simulation into the report.
func (c *cell) collect() *Report {
	sim, rep, tp := c.sim, c.rep, c.sim.Topo
	c.readDelivered(nil) // final reading for flows still alive

	rep.FinalUtilisation = sim.Net.MaxUtilisation()
	rep.Events = sim.Sched.Ran()
	igpStats := sim.Domain.Stats()
	rep.SPFIncrementalRuns = igpStats.SPFIncrementalRuns
	rep.SPFFullRuns = igpStats.SPFFullRuns
	netStats := sim.Net.Stats()
	rep.ReshareFull = netStats.ReshareFull
	rep.ReshareIncremental = netStats.ReshareIncremental
	rep.ReshareComponents = netStats.ReshareComponents
	rep.Aggregates = netStats.Aggregates
	if len(c.demandsAtSettle) > 0 {
		c.settledBounds()
	}

	agg := video.AggregateQoE(sim.QoE())
	rep.Sessions = agg.Sessions
	rep.SmoothSessions = agg.SmoothSessions
	rep.MeanRebuffer = agg.MeanRebuffer
	rep.StallSeconds = c.stallTotal()
	rep.LateStallSeconds = rep.StallSeconds - c.stallAtSettle

	rep.Lies = sim.Lies.LieCount()
	rep.LiesByPrefix = make(map[string]int)
	for _, pr := range tp.Prefixes() {
		if n := len(sim.Lies.Installed(pr.Name)); n > 0 {
			rep.LiesByPrefix[pr.Name] = n
		}
	}
	rep.Decisions = sim.Ctrl.Decisions
	rep.Reactions = sim.Ctrl.Reactions
	rep.StrategyPerf = sim.Ctrl.Planner().Perf()
	artStats := sim.Ctrl.ArtifactStats()
	rep.PlanCacheHits, rep.PlanCacheMisses = artStats.Hits, artStats.Misses
	rep.QoECacheHits, rep.QoECacheMisses = artStats.QoEHits, artStats.QoEMisses
	rep.LPColdSolves = sim.Ctrl.LPStats().Cold
	if len(rep.Decisions) > 0 {
		rep.FirstReactionAt = rep.Decisions[0].At
		if rep.FirstHotAt >= 0 && rep.FirstReactionAt >= rep.FirstHotAt {
			rep.ReactionLatency = rep.FirstReactionAt - rep.FirstHotAt
		}
	}
	if rep.FailureAt >= 0 {
		rep.FailoverStallSeconds = c.stallAfterFailover - c.stallAtFailure
		for _, d := range rep.Decisions {
			if d.At >= rep.FailureAt {
				rep.FailoverCommitAt = d.At
				break
			}
		}
		if rep.FailoverCommitAt >= 0 {
			rep.FailoverLatency = rep.FailoverCommitAt - rep.FailureAt
		}
	}
	if sim.BFD != nil {
		bfdStats := sim.BFD.Stats()
		rep.BFDSessions = bfdStats.Sessions
		rep.BFDLinkDowns = bfdStats.DownEvents
		rep.BFDLinkUps = bfdStats.UpEvents
	}
	for _, err := range sim.Ctrl.Errors {
		rep.ControllerErrors = append(rep.ControllerErrors, err.Error())
	}
	for _, err := range sim.Domain.Errors {
		rep.ProtocolErrors = append(rep.ProtocolErrors, err.Error())
	}

	// Per-wave delivery accounting. A wave scheduled past the end of a
	// shortened run never fires: its lifetime clamps to zero.
	rep.Waves = make([]WaveDelivery, len(c.waves))
	for i, w := range c.waves {
		life := max(c.spec.Duration-w.At, 0)
		if w.Hold > 0 && w.Hold < life {
			life = w.Hold
		}
		rep.Waves[i] = WaveDelivery{
			At:       w.At,
			Flows:    w.Flows,
			Expected: w.Rate * life.Seconds() * float64(w.Flows) / 1e6,
		}
	}
	for _, tr := range c.tracks {
		rep.DeliveredMbit += tr.delivered * 8 / 1e6
		if tr.wave >= 0 {
			rep.Waves[tr.wave].Delivered += tr.delivered * 8 / 1e6
		}
	}
	for i := range rep.Waves {
		if rep.Waves[i].Expected > 0 {
			rep.Waves[i].Fraction = rep.Waves[i].Delivered / rep.Waves[i].Expected
		}
	}
	return rep
}

// settledBounds fills the report's analytic figures for the demand set
// snapshotted at the settle start: the LP optimum, the uncapped
// utilisation of the final routing state, and its predicted stalls. All
// three are over the links that are live at the settle start: a link the
// schedule has failed carries nothing and bounds nothing.
func (c *cell) settledBounds() {
	sim, rep, demands := c.sim, c.rep, c.demandsAtSettle
	tp := c.liveTopo(c.spec.settleStart())
	// The LP bound is for reporting only; beyond the controller's own LP
	// size limit its pricing rounds would dominate the cell's wall-clock
	// (a minute on Waxman 1000), so skip it and note the degradation. The
	// LP-optimality invariant only fires when LPOptimum is set.
	routers := 0
	for _, n := range tp.Nodes() {
		if !n.Host {
			routers++
		}
	}
	if routers > controller.DefaultMaxLPRouters {
		rep.Notes = append(rep.Notes, fmt.Sprintf("LP bound skipped: %d routers", routers))
	} else if opt, err := te.SolveMinMax(tp, demands); err == nil {
		rep.LPOptimum = opt.MaxUtilisation
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("LP bound unavailable: %v", err))
	}
	// The final routing state, compiled once: the uncapped utilisation
	// walks it, and so does the analytic stall predictor over the settled
	// demands and the controller's member census — the same estimate a
	// saturated planning round ranks by. The prediction is reported for
	// every run, controller on or off, so predicted and simulated stalls
	// can be read side by side.
	liesNow := map[string][]fibbing.Lie{rep.TargetPrefix: sim.Lies.Installed(rep.TargetPrefix)}
	views, err := te.DemandViews(fibbing.NewEvaluator(tp), liesNow, demands)
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("analytic bound unavailable: %v", err),
			fmt.Sprintf("QoE prediction unavailable: %v", err))
		return
	}
	if loads, err := te.LinkLoads(tp, views, demands); err == nil {
		rep.AnalyticUtilisation = te.MaxUtilOfLoads(tp, loads)
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("analytic bound unavailable: %v", err))
	}
	if q, err := qoe.PredictPlan(tp, views, demands, sim.Ctrl.QoEModel()); err == nil {
		rep.PredictedStallSeconds = q.StallSeconds
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("QoE prediction unavailable: %v", err))
	}
}

// liveTopo returns the cell's topology without the links its failure
// schedule has down at the instant at (a change at that instant has
// happened: the schedule's events precede the run's snapshots), or the
// topology itself when every link is up.
func (c *cell) liveTopo(at time.Duration) *topo.Topology {
	tp := c.sim.Topo
	down := make(map[topo.LinkID]bool)
	for _, f := range slices.SortedStableFunc(slices.Values(c.failures), func(a, b FailureEvent) int {
		return cmp.Compare(a.At, b.At)
	}) {
		if l, ok := tp.FindLink(tp.MustNode(f.A), tp.MustNode(f.B)); ok && f.At <= at {
			id := l.ID // either end order names the same link
			if l.Reverse != topo.NoLink {
				id = min(id, l.Reverse)
			}
			down[id] = !f.Up
		}
	}
	var gone []topo.LinkID
	for _, id := range slices.Sorted(maps.Keys(down)) {
		if down[id] {
			gone = append(gone, id)
		}
	}
	if len(gone) == 0 {
		return tp
	}
	return tp.CloneWithoutLinks(gone...)
}

// arm is one run of a comparison cell: the edit that turns the cell's
// spec into this arm's (nil keeps it) and whether the controller is on.
type arm struct {
	label    string
	edit     func(*Spec)
	withCtrl bool
}

// onOff are the arms of a controller-on/off comparison, in report order.
var onOff = []arm{{"on", nil, true}, {"off", nil, false}}

// runArms runs the arms of a comparison cell one after another, each from
// a fresh simulation, and returns their reports in arm order.
func runArms(spec Spec, arms ...arm) ([]*Report, error) {
	reps := make([]*Report, len(arms))
	for i, a := range arms {
		s := spec
		if a.edit != nil {
			a.edit(&s)
		}
		rep, err := Run(s, a.withCtrl)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", a.label, err)
		}
		reps[i] = rep
	}
	return reps, nil
}

// Compare runs both sides of a spec and checks the invariants.
func Compare(spec Spec) (*Comparison, error) {
	spec = spec.withDefaults()
	r, err := runArms(spec, onOff...)
	if err != nil {
		return nil, err
	}
	return &Comparison{Spec: spec, On: r[0], Off: r[1], Violations: Violations(spec, r[0], r[1])}, nil
}
