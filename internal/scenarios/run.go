package scenarios

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// flowTrack follows one flow through its life for delivery accounting.
type flowTrack struct {
	wave      int
	rate      float64
	delivered float64 // bytes, high-water from sampling
	session   *video.SimSession
}

// testHookSimBuilt, when set (property tests only), observes the freshly
// assembled simulation before any wave is scheduled — e.g. to arm a
// fair-share equivalence checker on the data plane.
var testHookSimBuilt func(*controller.Sim)

// Run executes one scenario with or without the Fibbing controller and
// returns its report. Each call builds a fresh topology and simulation,
// so concurrent Runs (the matrix test's parallel cells) are independent.
func Run(spec Spec, withCtrl bool) (*Report, error) {
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
		if w.At > lastEvent {
			lastEvent = w.At
		}
	}
	for _, f := range failures {
		if f.At > lastEvent {
			lastEvent = f.At
		}
	}
	if spec.Duration <= lastEvent {
		return nil, fmt.Errorf("%s: duration %v too short: last scheduled event at %v",
			spec.Name, spec.Duration, lastEvent)
	}

	p, _ := tp.PrefixByName(prefix)
	strategies, err := controller.StrategiesByName(spec.Strategies)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	scoreMode, err := controller.ParseScoreMode(spec.ScoreMode)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	// The alarm threshold is set explicitly so the report's first-hot
	// detection below measures against the same value the monitor uses.
	const hotThreshold = 0.85
	var bfdCfg *bfd.Config
	if spec.BFD {
		bfdCfg = &bfd.Config{Seed: spec.Seed}
	}
	sim, err := controller.NewSim(controller.SimOpts{
		Topology:     tp,
		Prefix:       prefix,
		AttachAt:     tp.Name(p.Attachments[0].Node),
		WithCtrl:     withCtrl,
		Strategies:   strategies,
		TrackPlayers: true,
		SampleEvery:  500 * time.Millisecond,
		VideoSample:  250 * time.Millisecond,
		Monitor:      monitor.Config{HighThreshold: hotThreshold},
		Controller:   controller.Config{ScoreMode: scoreMode},
		Workers:      spec.Workers,
		BFD:          bfdCfg,
		StandbyK:     spec.StandbyK,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if testHookSimBuilt != nil {
		testHookSimBuilt(sim)
	}

	// Map started flows back to their wave: wave w contributes exactly
	// w.Flows OnFlowStarted callbacks at time w.At.
	waveQueue := make(map[time.Duration][]int)
	for i, w := range waves {
		for f := 0; f < w.Flows; f++ {
			waveQueue[w.At] = append(waveQueue[w.At], i)
		}
	}
	// order and tracks are parallel: tracks[i] follows flow order[i].
	var order []netsim.FlowID
	var tracks []*flowTrack
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
		tr := &flowTrack{wave: wi, rate: rate}
		if n := len(sim.Sessions); n > 0 {
			tr.session = sim.Sessions[n-1]
		}
		order, tracks = append(order, id), append(tracks, tr)
		// Departing viewers stop watching: freeze the session's QoE and
		// take a final delivery reading when the hold expires (the Runner
		// removes the flow at the same instant, after this event).
		if wi >= 0 && waves[wi].Hold > 0 {
			hold := waves[wi].Hold
			sim.Sched.After(hold, func() {
				if d, ok := sim.Net.Delivered(id); ok {
					tr.delivered = d
				}
				if tr.session != nil {
					tr.session.Stop()
				}
			})
		}
	}

	rep := &Report{
		Scenario:         spec.Name,
		Controller:       withCtrl,
		ScoreMode:        scoreMode.String(),
		Duration:         spec.Duration,
		TargetPrefix:     prefix,
		FirstHotAt:       -1,
		FirstReactionAt:  -1,
		ReactionLatency:  -1,
		FailureAt:        -1,
		FailoverCommitAt: -1,
		FailoverLatency:  -1,
	}

	// Failure schedule.
	for _, f := range failures {
		f := f
		sim.Sched.At(f.At, func() {
			if err := sim.SetLinkState(f.A, f.B, f.Up); err != nil {
				rep.ProtocolErrors = append(rep.ProtocolErrors, err.Error())
			}
		})
	}

	// Samplers: utilisation peaks, first-hot detection, per-flow delivery.
	settleStart := spec.settleStart()
	stallTotal := func() float64 {
		var s float64
		for _, sess := range sim.Sessions {
			s += sess.QoE().StallTime.Seconds()
		}
		return s
	}
	// readDelivered refreshes every live flow's delivery reading through
	// one batched read of the fluid model (finished flows keep theirs).
	var deliveredBuf []float64
	readDelivered := func() {
		deliveredBuf = sim.Net.DeliveredInto(order, deliveredBuf)
		for i, d := range deliveredBuf {
			if d >= 0 {
				tracks[i].delivered = d
			}
		}
	}
	var stallAtSettle float64
	var demandsAtSettle []topo.Demand
	sim.Sched.NewTicker(250*time.Millisecond, func() {
		u := sim.Net.MaxUtilisation()
		if u > rep.PeakUtilisation {
			rep.PeakUtilisation = u
		}
		now := sim.Sched.Now()
		if now >= settleStart && u > rep.SettledUtilisation {
			rep.SettledUtilisation = u
		}
		if rep.FirstHotAt < 0 && u >= hotThreshold {
			rep.FirstHotAt = now
		}
		readDelivered()
	})
	sim.Sched.At(settleStart, func() {
		stallAtSettle = stallTotal()
		demandsAtSettle = sim.Ctrl.Demands()
	})

	// Failover window accounting: stall totals at the first link-down
	// instant and failoverWindow later bracket the stalls the failure
	// itself causes — the figure the fast-failover invariant compares.
	var stallAtFailure, stallAfterFailover float64
	for _, f := range failures {
		if !f.Up {
			rep.FailureAt = f.At
			break
		}
	}
	if rep.FailureAt >= 0 {
		sim.Sched.At(rep.FailureAt, func() { stallAtFailure = stallTotal() })
		end := rep.FailureAt + failoverWindow
		if end > spec.Duration {
			end = spec.Duration
		}
		sim.Sched.At(end, func() { stallAfterFailover = stallTotal() })
	}

	if err := sim.Runner.Schedule(waves); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	sim.Run(spec.Duration)

	readDelivered() // final reading for flows still alive

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
	par := sim.Sched.Parallel()
	rep.Workers = par.Workers
	rep.ParallelBatches = par.Batches
	rep.ParallelSPFRuns = par.BatchedEvents
	rep.SequentialSPFRuns = par.SoloParallel
	rep.MaxBatch = par.MaxBatch
	if len(demandsAtSettle) > 0 {
		// The LP bound (a full-tableau simplex solve, quadratic in the
		// topology) is for reporting only; beyond the controller's own LP
		// size limit it would dominate the cell's wall-clock (the scale
		// cells would take hours), so skip it and note the degradation.
		// The LP-optimality invariant only fires when LPOptimum is set.
		routers := 0
		for _, n := range tp.Nodes() {
			if !n.Host {
				routers++
			}
		}
		if routers > controller.DefaultMaxLPRouters {
			rep.Notes = append(rep.Notes, fmt.Sprintf("LP bound skipped: %d routers", routers))
		} else if opt, err := te.SolveMinMax(tp, demandsAtSettle); err == nil {
			rep.LPOptimum = opt.MaxUtilisation
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("LP bound unavailable: %v", err))
		}
		liesNow := map[string][]fibbing.Lie{prefix: sim.Lies.Installed(prefix)}
		if loads, err := te.LoadsWithLies(tp, liesNow, demandsAtSettle); err == nil {
			rep.AnalyticUtilisation = te.MaxUtilOfLoads(tp, loads)
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("analytic bound unavailable: %v", err))
		}
		// Predicted QoE of the final routing state: the analytic stall
		// predictor over the settled demands and the controller's member
		// census — the same estimate the qoe score mode plans against.
		// Reported for every run (any score mode, controller on or off)
		// so the score-mode comparison cells can check that predicted and
		// simulated stalls move together.
		views := make(map[string]map[topo.NodeID]fibbing.RouteView, len(tp.Prefixes()))
		var viewErr error
		ev := fibbing.NewEvaluator(tp)
		for _, pr := range tp.Prefixes() {
			v, err := ev.Evaluate(pr.Name, liesNow[pr.Name])
			if err != nil {
				viewErr = err
				break
			}
			views[pr.Name] = v
		}
		if viewErr == nil {
			if q, err := qoe.PredictPlan(tp, views, demandsAtSettle, sim.Ctrl.QoEModel()); err == nil {
				rep.PredictedStallSeconds = q.StallSeconds
			} else {
				viewErr = err
			}
		}
		if viewErr != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("QoE prediction unavailable: %v", viewErr))
		}
	}

	agg := video.AggregateQoE(sim.QoE())
	rep.Sessions = agg.Sessions
	rep.SmoothSessions = agg.SmoothSessions
	rep.MeanRebuffer = agg.MeanRebuffer
	rep.StallSeconds = stallTotal()
	rep.LateStallSeconds = rep.StallSeconds - stallAtSettle

	rep.Lies = sim.Lies.LieCount()
	rep.LiesByPrefix = make(map[string]int)
	for _, pr := range tp.Prefixes() {
		if n := len(sim.Lies.Installed(pr.Name)); n > 0 {
			rep.LiesByPrefix[pr.Name] = n
		}
	}
	rep.Decisions = sim.Ctrl.Decisions
	rep.Strategies = sim.Ctrl.Planner().Strategies()
	rep.StrategyPerf = sim.Ctrl.Planner().Perf()
	artStats := sim.Ctrl.ArtifactStats()
	rep.PlanCacheHits, rep.PlanCacheMisses = artStats.Hits, artStats.Misses
	rep.QoECacheHits, rep.QoECacheMisses = artStats.QoEHits, artStats.QoEMisses
	lpStats := sim.Ctrl.LPStats()
	rep.LPWarmSolves, rep.LPColdSolves, rep.LPFallbackSolves = lpStats.Warm, lpStats.Cold, lpStats.Fallback
	if len(rep.Decisions) > 0 {
		rep.FirstReactionAt = rep.Decisions[0].At
		if rep.FirstHotAt >= 0 && rep.FirstReactionAt >= rep.FirstHotAt {
			rep.ReactionLatency = rep.FirstReactionAt - rep.FirstHotAt
		}
		rep.StrategyWins = make(map[string]int)
		for _, d := range rep.Decisions {
			rep.StrategyWins[d.Strategy]++
		}
	}
	if rep.FailureAt >= 0 {
		rep.FailoverStallSeconds = stallAfterFailover - stallAtFailure
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
	rep.StandbyPrecomputed = sim.Ctrl.Standby.Precomputed
	rep.StandbyHits = sim.Ctrl.Standby.Hits
	rep.StandbyMisses = sim.Ctrl.Standby.Misses
	rep.StandbyStale = sim.Ctrl.Standby.Stale
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
	rep.Waves = make([]WaveDelivery, len(waves))
	for i, w := range waves {
		life := spec.Duration - w.At
		if life < 0 {
			life = 0
		}
		if w.Hold > 0 && w.Hold < life {
			life = w.Hold
		}
		rep.Waves[i] = WaveDelivery{
			At:       w.At,
			Flows:    w.Flows,
			Expected: w.Rate * life.Seconds() * float64(w.Flows) / 1e6,
		}
	}
	for _, tr := range tracks {
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
	return rep, nil
}

// RunPair executes the spec with and without the controller.
func RunPair(spec Spec) (on, off *Report, err error) {
	if on, err = Run(spec, true); err != nil {
		return nil, nil, err
	}
	if off, err = Run(spec, false); err != nil {
		return nil, nil, err
	}
	return on, off, nil
}

// Compare runs both sides of a spec and checks the invariants.
func Compare(spec Spec) (*Comparison, error) {
	spec = spec.withDefaults()
	on, off, err := RunPair(spec)
	if err != nil {
		return nil, err
	}
	return &Comparison{Spec: spec, On: on, Off: off, Violations: Violations(spec, on, off)}, nil
}
