package main

// The traced pass of loop-matrix. The gated op goes through
// scenarios.Run, which owns its simulation; to see inside one reaction
// the traced pass runs sliced simulations of the paper's own timeline.

import (
	"math"
	"time"

	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/topo"
)

// fig2Sims is the loop-matrix traced pass: the paper's Fig. 2 timeline
// on the Fig. 1 network, and a link failure under a steady crowd on the
// same network with BFD and the standby cache on.
func fig2Sims() []slicedSim {
	return []slicedSim{
		{
			name: "fig2", topo: scenarios.TopoSpec{Family: "fig1"}, duration: 60 * time.Second,
			waves: func(*topo.Topology, string) ([]flashcrowd.Wave, *linkFailure, error) {
				return flashcrowd.Fig2Schedule(0), nil, nil
			},
		},
		{
			name: "fig1-failover", topo: scenarios.TopoSpec{Family: "fig1"}, duration: 30 * time.Second, bfd: true,
			waves: func(tp *topo.Topology, prefix string) ([]flashcrowd.Wave, *linkFailure, error) {
				cr, err := findCrowd(tp, prefix)
				if err != nil {
					return nil, nil, err
				}
				const flows = 20
				w := flashcrowd.Wave{At: time.Second, Ingress: tp.Name(cr.primary), Flows: flows, Rate: 0.8 * cr.pathCap / flows}
				return []flashcrowd.Wave{w}, &linkFailure{14 * time.Second, tp.Name(cr.uplink.From), tp.Name(cr.uplink.To)}, nil
			},
		},
	}
}

// traced runs the workload's traced simulations under one root span.
func (f *loopFixture) traced(rec *recorder) error {
	root := rec.begin("harness.op")
	defer rec.end(root)
	f.marks = f.marks[:0]
	for _, ts := range fig2Sims() {
		sim, mk, err := ts.run(rec, func() {})
		if err != nil {
			return err
		}
		f.lastSim = sim
		f.marks = append(f.marks, mk)
	}
	return nil
}

// layers reports the loop workloads' counters — from the last gated op's
// reports, which describe the cells the end-to-end numbers were taken on
// — the traced simulations' simulated-time chain, and direct probes of
// the forwarding and monitoring layers on the last traced simulation.
func (f *loopFixture) layers(m metricSet) {
	var events, full, inc, batches, resInc, resFull, comps, hits, misses, qhits, qmisses float64
	var predErr, predN float64
	maxBatch := 0
	for _, r := range f.reports {
		events += float64(r.Events)
		full += float64(r.SPFFullRuns)
		inc += float64(r.SPFIncrementalRuns)
		batches += float64(r.ParallelBatches)
		maxBatch = max(maxBatch, r.MaxBatch)
		resInc += float64(r.ReshareIncremental)
		resFull += float64(r.ReshareFull)
		comps += float64(r.ReshareComponents)
		hits += float64(r.PlanCacheHits)
		misses += float64(r.PlanCacheMisses)
		qhits += float64(r.QoECacheHits)
		qmisses += float64(r.QoECacheMisses)
		m["netsim.aggregates"] += float64(r.Aggregates)
		m["te.lp_warm_solves"] += float64(r.LPWarmSolves)
		m["te.lp_cold_solves"] += float64(r.LPColdSolves)
		m["te.lp_fallback_solves"] += float64(r.LPFallbackSolves)
		m["controller.decisions"] += float64(len(r.Decisions))
		m["controller.standby_hits"] += float64(r.StandbyHits)
		m["controller.standby_precomputed"] += float64(r.StandbyPrecomputed)
		m["video.sessions"] += float64(r.Sessions)
		m["bfd.sessions"] += float64(r.BFDSessions)
		m["bfd.link_downs"] += float64(r.BFDLinkDowns)
		for name, sp := range r.StrategyPerf {
			m["controller.strategy_ms."+name] += float64(sp.Nanos) / 1e6
		}
		if r.ScoreMode == "qoe" && r.StallSeconds > 0 {
			predErr += math.Abs(r.PredictedStallSeconds-r.StallSeconds) / r.StallSeconds
			predN++
		}
	}
	m["event.events_per_op"] = events
	m["event.parallel_batches"] = batches
	m["event.max_batch"] = float64(maxBatch)
	m["ospf.spf_full_runs"] = full
	m["ospf.spf_incremental_runs"] = inc
	m["ospf.spf_incremental_ratio"] = ratio(inc, inc+full)
	m["netsim.reshare_incremental"] = resInc
	m["netsim.reshare_full"] = resFull
	m["netsim.reshare_components"] = comps
	m["netsim.incremental_ratio"] = ratio(resInc, resInc+resFull)
	m["controller.plan_cache_misses"] = misses
	m["controller.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["controller.qoe_cache_hit_ratio"] = ratio(qhits, qhits+qmisses)
	m["qoe.predict_err_ratio"] = ratio(predErr, predN)

	marksMetrics(m, f.marks)
	if f.lastSim != nil {
		probeForwarding(m, f.lastSim)
	}
}
