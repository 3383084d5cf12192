package main

// The traced pass of the planner workloads: the planner's two phases are
// called separately, then each layer function the planner is built from
// is timed directly on the same inputs.

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// dagOf turns route views back into the forwarding DAG they realise: the
// requirement a lie set must satisfy.
func dagOf(views map[topo.NodeID]fibbing.RouteView) fibbing.DAG {
	dag := make(fibbing.DAG)
	for n, v := range views {
		if !v.Local && len(v.NextHops) > 0 {
			dag[n] = v.NextHops
		}
	}
	return dag
}

// traced plans every problem once with ProposeAll and Select split, then
// calls the layers below the planner on the winning plan's inputs.
func (f *planFixture) traced(rec *recorder) error {
	root := rec.begin("harness.op")
	defer rec.end(root)
	for i, p := range f.problems {
		arts := controller.NewPlanArtifacts(p.tp)
		if f.warm {
			arts = f.arts[i]
		}
		var ctx controller.PlanContext
		rec.in("controller.context", func() { ctx = p.context(arts) })
		var plans []*controller.Plan
		var errs []error
		rec.in("controller.propose", func() { plans, errs = f.planner.ProposeAll(ctx) })
		if len(errs) > 0 {
			return fmt.Errorf("%s: %v", p.name, errs)
		}
		var plan *controller.Plan
		rec.in("controller.select", func() { plan = f.planner.Select(ctx, plans) })
		if plan == nil {
			return fmt.Errorf("%s: no admissible plan", p.name)
		}
		f.plans++
		if !f.warm {
			f.addStats(arts)
		}
		if err := f.probeLayers(rec, p, plan); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// probeLayers times the layer functions directly, on one problem and the
// plan the planner selected for it.
func (f *planFixture) probeLayers(rec *recorder, p *problem, plan *controller.Plan) error {
	prefix := p.demands[0].PrefixName
	lies := plan.Lies[prefix]
	var err error
	fail := func(what string, e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %w", what, e)
		}
	}

	// fibbing: believed-topology evaluation of the winning lies, then the
	// pin-everything augmentation of the same forwarding DAG, its greedy
	// reduction, and the verification of the reduced set.
	var views map[topo.NodeID]fibbing.RouteView
	rec.in("fibbing.evaluate", func() {
		var e error
		views, e = fibbing.Evaluate(p.tp, prefix, lies)
		fail("evaluate", e)
	})
	if err != nil {
		return err
	}
	dag := dagOf(views)
	var aug, reduced *fibbing.Augmentation
	rec.in("fibbing.augment", func() {
		var e error
		aug, e = fibbing.AugmentPinAll(p.tp, prefix, dag)
		fail("augment", e)
	})
	if err != nil {
		return err
	}
	rec.in("fibbing.reduce", func() {
		var e error
		reduced, e = fibbing.ReduceLies(p.tp, prefix, aug, dag)
		fail("reduce", e)
	})
	if err != nil {
		return err
	}
	rec.in("fibbing.verify", func() { fail("verify", fibbing.Verify(p.tp, prefix, reduced.Lies, dag)) })

	// te: a cold min-max solve, a second solve of the same structure with
	// every volume nudged (the warm-start path), and the fluid link-load
	// evaluation of the winning lies.
	rec.in("te.minmax_cold", func() {
		_, e := te.SolveMinMax(p.tp, p.demands)
		fail("minmax", e)
	})
	solver := te.NewMinMaxSolver()
	if _, e := solver.Solve(p.tp, p.demands); e != nil {
		return fmt.Errorf("minmax solver: %w", e)
	}
	nudged := make([]topo.Demand, len(p.demands))
	for i, d := range p.demands {
		d.Volume *= 1.03
		nudged[i] = d
	}
	rec.in("te.minmax_warm", func() {
		_, e := solver.Solve(p.tp, nudged)
		fail("warm minmax", e)
	})
	rec.in("te.loads", func() {
		_, e := te.LoadsWithLies(p.tp, map[string][]fibbing.Lie{prefix: lies}, p.demands)
		fail("loads", e)
	})

	// spf: one router's tree, the same tree patched after one link's
	// weight moved, and Yen's paths from the crowd's ingress.
	g := spf.FromTopology(p.tp)
	skip := spf.HostSkip(p.tp)
	src := p.demands[0].Ingress
	var tree *spf.Tree
	rec.in("spf.compute", func() { tree = spf.ComputeRouters(g, p.tp, src) })
	link := p.tp.Link(p.ev.Alarm.Link)
	bumped, changes := bumpWeight(g, link)
	rec.in("spf.incremental", func() { spf.Incremental(bumped, tree, changes, skip) })
	pfx, _ := p.tp.PrefixByName(prefix)
	dst := pfx.Attachments[0].Node
	rec.in("spf.kshortest", func() { spf.KShortest(g, src, dst, 4, skip) })

	// qoe: the stall predictor over the winning plan's views.
	rec.in("qoe.predict_plan", func() {
		_, e := qoe.PredictPlan(p.tp, map[string]map[topo.NodeID]fibbing.RouteView{prefix: views}, p.demands, p.model)
		fail("predict", e)
	})
	return err
}

// layers reports the planner workloads' counters: the per-strategy
// propose time the planner itself accounts, and the cache and LP
// counters accumulated over every plan made so far.
func (f *planFixture) layers(m metricSet) {
	plans := float64(f.plans)
	if plans == 0 {
		return
	}
	if f.warm {
		f.cache, f.lp = controller.ArtifactStats{}, te.WarmLPStats{}
		for _, arts := range f.arts {
			f.addStats(arts)
		}
	}
	for name, sp := range f.planner.Perf() {
		m["controller.strategy_ms."+name] = float64(sp.Nanos) / 1e6 / plans
	}
	m["controller.plan_cache_misses"] = float64(f.cache.Misses) / plans
	m["controller.plan_cache_hit_ratio"] = ratio(float64(f.cache.Hits), float64(f.cache.Hits+f.cache.Misses))
	m["controller.qoe_cache_hit_ratio"] = ratio(float64(f.cache.QoEHits), float64(f.cache.QoEHits+f.cache.QoEMisses))
	m["te.lp_warm_solves"] = float64(f.lp.Warm) / plans
	m["te.lp_cold_solves"] = float64(f.lp.Cold) / plans
	m["te.lp_fallback_solves"] = float64(f.lp.Fallback) / plans
	m["qoe.predict_session_ns"] = probeNs(2000, func() {
		qoe.PredictSession(qoe.SessionConfig{Ladder: []float64{0.4e6, 0.8e6, 1.6e6}}, 1.1e6, 30*time.Second)
	})
}

// bumpWeight returns a copy of g with the weight of l's adjacency raised
// by one, and the change list spf.Incremental needs to patch a tree
// computed on g.
func bumpWeight(g *spf.Graph, l topo.Link) (*spf.Graph, []spf.GraphChange) {
	bumped := g.Clone()
	var edges []spf.Edge
	for _, e := range bumped.Out[l.From] {
		if e.To == l.To {
			e.Weight++
			edges = append(edges, e)
		}
	}
	bumped.ReplaceEdges(l.From, l.To, edges)
	return bumped, []spf.GraphChange{{From: l.From, To: l.To}}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeNs times n back-to-back calls and returns nanoseconds per call.
func probeNs(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
