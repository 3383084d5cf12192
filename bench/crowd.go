package main

// The crowd-20k workload: one surge of about twenty thousand viewers on a
// fat-tree k=4 fabric at 1 Gbit/s, controller on. Data plane and player
// pool; the planner runs once or twice.
//
// Unlike loop-matrix this op does not go through scenarios.Run. One such
// run is a single half-second call, and a half-second interval cannot be
// corrected for host speed from its two ends (see stopwatch): the op's
// time then repeats only within 11-14 %. Driven through controller.NewSim
// and flashcrowd.Runner.Schedule in one-second slices of simulated time,
// the same simulation offers a tick per slice, and the traced pass is the
// gated op itself with the recorder switched on.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// crowdSim builds the surge: a scout flow at 1 s, half the viewers at
// 5 s, the rest at 12 s, all from the ingress farthest from the prefix,
// together 1.7x the bottleneck of its IGP path (the scenario harness's
// surge schedule). The seed draws the viewer count within half a percent
// of 20000, which moves every session's rate without changing the shape
// of the run.
func crowdSim(seed int64) slicedSim {
	rng := rand.New(rand.NewSource(seed))
	viewers := 19900 + rng.Intn(201)
	return slicedSim{
		name:     "crowd-20k",
		topo:     scenarios.TopoSpec{Family: "fattree", Size: 4, Seed: 2, Capacity: 1e9},
		duration: 30 * time.Second,
		waves: func(tp *topo.Topology, prefix string) ([]flashcrowd.Wave, *linkFailure, error) {
			cr, err := findCrowd(tp, prefix)
			if err != nil {
				return nil, nil, err
			}
			rate := 1.7 * cr.pathCap / float64(viewers)
			first := viewers / 2
			in := tp.Name(cr.primary)
			return []flashcrowd.Wave{
				{At: 1 * time.Second, Ingress: in, Flows: 1, Rate: rate},
				{At: 5 * time.Second, Ingress: in, Flows: first, Rate: rate},
				{At: 12 * time.Second, Ingress: in, Flows: viewers - 1 - first, Rate: rate},
			}, nil, nil
		},
	}
}

type crowdFixture struct {
	sim slicedSim
	// last and marks are the most recent run's simulation and what its
	// wrapped callbacks saw, for the traced run's counters.
	last  *controller.Sim
	marks simMarks
}

func buildCrowd(seed int64) (fixture, error) {
	f := &crowdFixture{sim: crowdSim(seed)}
	// Building the topology and the schedule validates the generated
	// inputs before any op is timed.
	tp, prefix, err := f.sim.topo.Build()
	if err != nil {
		return nil, err
	}
	if _, _, err := f.sim.waves(tp, prefix); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *crowdFixture) op(tick func()) (outcome, error) {
	return f.run(nil, tick)
}

// traced is the op itself with the recorder switched on.
func (f *crowdFixture) traced(rec *recorder) error {
	root := rec.begin("harness.op")
	defer rec.end(root)
	_, err := f.run(rec, func() {})
	return err
}

func (f *crowdFixture) run(rec *recorder, tick func()) (outcome, error) {
	var out outcome
	f.last = nil // one simulation alive at a time: the footprint is an op's, not two
	sim, mk, err := f.sim.run(rec, tick)
	if err != nil {
		return out, err
	}
	f.last, f.marks = sim, mk

	// The routing state the controller left: its lies, and the analytic
	// utilisation of the settled demands over them against the LP bound.
	prefix := sim.Runner.Prefix
	installed := map[string][]fibbing.Lie{prefix: sim.Lies.Installed(prefix)}
	demands := sim.Ctrl.Demands()
	loads, err := te.LoadsWithLies(sim.Topo, installed, demands)
	if err != nil {
		return out, err
	}
	opt, err := te.SolveMinMax(sim.Topo, demands)
	if err != nil {
		return out, err
	}
	out.util = te.MaxUtilOfLoads(sim.Topo, loads)
	out.utilGap = max(0, out.util/opt.MaxUtilisation-1) // the LP is a lower bound; below it is rounding
	out.lies = float64(sim.Lies.LieCount())
	out.stallS = mk.stallS
	out.reactMs = gap(mk.firstHot, mk.firstCommit)

	// Everything simulated that a faster simulator must leave alone.
	h := sha256.New()
	for _, d := range sim.Ctrl.Decisions {
		fmt.Fprintf(h, "%d %s %s %d\n", d.At, d.Prefix, d.Strategy, d.Lies)
	}
	var delivered float64
	for _, id := range sim.Runner.Flows() {
		if b, ok := sim.Net.Delivered(id); ok {
			delivered += b
		}
	}
	net, igp := sim.Net.Stats(), sim.Domain.Stats()
	fmt.Fprintf(h, "%x %x %x %d %d %d %d %d %d %d", math.Float64bits(out.util), math.Float64bits(out.stallS),
		math.Float64bits(delivered), sim.Sched.Ran(), net.ReshareFull, net.ReshareIncremental, net.Aggregates,
		igp.PacketsSent, igp.SPFFullRuns, igp.SPFIncrementalRuns)
	h.Sum(out.digest[:0])
	return out, nil
}

// layers reports the last run's counters and direct probes of its
// forwarding state.
func (f *crowdFixture) layers(m metricSet) {
	sim := f.last
	if sim == nil {
		return
	}
	par, net, igp := sim.Sched.Parallel(), sim.Net.Stats(), sim.Domain.Stats()
	arts, lp := sim.Ctrl.ArtifactStats(), sim.Ctrl.LPStats()
	m["event.events_per_op"] = float64(sim.Sched.Ran())
	m["event.parallel_batches"] = float64(par.Batches)
	m["event.max_batch"] = float64(par.MaxBatch)
	m["ospf.spf_full_runs"] = float64(igp.SPFFullRuns)
	m["ospf.spf_incremental_runs"] = float64(igp.SPFIncrementalRuns)
	m["ospf.spf_incremental_ratio"] = ratio(float64(igp.SPFIncrementalRuns), float64(igp.SPFRuns))
	m["netsim.reshare_incremental"] = float64(net.ReshareIncremental)
	m["netsim.reshare_full"] = float64(net.ReshareFull)
	m["netsim.reshare_components"] = float64(net.ReshareComponents)
	m["netsim.incremental_ratio"] = ratio(float64(net.ReshareIncremental), float64(net.ReshareIncremental+net.ReshareFull))
	m["netsim.aggregates"] = float64(net.Aggregates)
	m["controller.plan_cache_misses"] = float64(arts.Misses)
	m["controller.plan_cache_hit_ratio"] = ratio(float64(arts.Hits), float64(arts.Hits+arts.Misses))
	m["controller.qoe_cache_hit_ratio"] = ratio(float64(arts.QoEHits), float64(arts.QoEHits+arts.QoEMisses))
	m["controller.decisions"] = float64(len(sim.Ctrl.Decisions))
	m["te.lp_warm_solves"] = float64(lp.Warm)
	m["te.lp_cold_solves"] = float64(lp.Cold)
	m["te.lp_fallback_solves"] = float64(lp.Fallback)
	m["video.sessions"] = float64(len(sim.Sessions))
	for name, sp := range sim.Ctrl.Planner().Perf() {
		m["controller.strategy_ms."+name] = float64(sp.Nanos) / 1e6
	}
	marksMetrics(m, []simMarks{f.marks})
	probeForwarding(m, sim)
}
