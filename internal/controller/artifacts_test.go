package controller

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// outcome is one TestArtifactMemo lookup's replayable result.
type outcome struct {
	val any
	err error
}

// errNoSpread stands for a spread lookup that found none, so a
// TestArtifactMemo row can state that outcome as an expected error.
var errNoSpread = errors.New("no spread")

func spreadOutcome(lies []fibbing.Lie, ok bool) outcome {
	if !ok {
		return outcome{lies, errNoSpread}
	}
	return outcome{val: lies}
}

// TestArtifactMemo drives the one memo helper through every face of the
// cache: a first lookup stores (counting one miss per table it fills,
// nested lookups included, and a hit for each nested entry an earlier
// lookup stored), a second lookup is exactly one hit that replays the
// first outcome — the identical error value for a failing key, so a
// failure is computed once.
func TestArtifactMemo(t *testing.T) {
	fig1 := topo.Fig1(topo.Fig1Opts{})
	blue := topo.Fig1BluePrefixName
	b := fig1.MustNode("B")
	demands := []topo.Demand{{Ingress: b, PrefixName: blue, Volume: 15e6}}
	ghost := []topo.Demand{{Ingress: b, PrefixName: "no-such-prefix", Volume: 1e6}}
	model := qoe.Model{Members: map[string]map[topo.NodeID]int{blue: {b: 30}}, Horizon: qoe.DefaultHorizon}

	cases := []struct {
		name string
		// before, if set, runs on the empty cache ahead of the first lookup.
		before func(t *testing.T, a *PlanArtifacts)
		// first is what the first lookup adds to the counters: a miss for
		// its own entry and each nested one it fills, a hit for each
		// nested one before stored.
		first   ArtifactStats
		wantErr bool
		lookup  func(a *PlanArtifacts) outcome
	}{
		{name: "MaxUtil compiles the views", first: ArtifactStats{Misses: 1}, lookup: func(a *PlanArtifacts) outcome {
			u, err := a.MaxUtil(nil, demands)
			return outcome{u, err}
		}},
		{name: "Loads over a failing view", first: ArtifactStats{Misses: 1}, wantErr: true, lookup: func(a *PlanArtifacts) outcome {
			l, err := a.Loads(nil, ghost)
			return outcome{l, err}
		}},
		{name: "lp", first: ArtifactStats{Misses: 1}, lookup: func(a *PlanArtifacts) outcome {
			e := a.lpOptimal(demands)
			return outcome{e, e.err}
		}},
		{name: "lp fails on a ghost prefix", first: ArtifactStats{Misses: 1}, wantErr: true, lookup: func(a *PlanArtifacts) outcome {
			e := a.lpOptimal(ghost)
			return outcome{e, e.err}
		}},
		{name: "spread reads the IGP views", first: ArtifactStats{Misses: 1}, lookup: func(a *PlanArtifacts) outcome {
			return spreadOutcome(a.spread(blue, b, false))
		}},
		{name: "spread finds none", first: ArtifactStats{Misses: 1}, wantErr: true, lookup: func(a *PlanArtifacts) outcome {
			return spreadOutcome(a.spread(blue, fig1.MustNode("A"), false)) // A's one uphill neighbour R1 is no downstream
		}},
		{name: "spread under LFA reads the IGP views", first: ArtifactStats{Misses: 1}, lookup: func(a *PlanArtifacts) outcome {
			return spreadOutcome(a.spread(blue, fig1.MustNode("A"), true)) // but R1 is a loop-free alternate
		}},
		{name: "predictQoE compiles the views", first: ArtifactStats{Misses: 1, QoEMisses: 1}, lookup: func(a *PlanArtifacts) outcome {
			q, err := a.predictQoEKeyed("m", nil, demands, model)
			return outcome{q, err}
		}},
		{name: "predictQoE after MaxUtil reads its loads entry", first: ArtifactStats{Hits: 1, QoEMisses: 1},
			before: func(t *testing.T, a *PlanArtifacts) {
				if _, err := a.MaxUtil(nil, demands); err != nil {
					t.Fatal(err)
				}
			},
			lookup: func(a *PlanArtifacts) outcome {
				q, err := a.predictQoEKeyed("m", nil, demands, model)
				return outcome{q, err}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewPlanArtifacts(fig1)
			if tc.before != nil {
				tc.before(t, a)
			}
			start := a.Stats()
			since := func() ArtifactStats {
				s := a.Stats()
				return ArtifactStats{s.Hits - start.Hits, s.Misses - start.Misses, s.QoEHits - start.QoEHits, s.QoEMisses - start.QoEMisses}
			}
			first := tc.lookup(a)
			if (first.err != nil) != tc.wantErr {
				t.Fatalf("first lookup err = %v, want an error: %v", first.err, tc.wantErr)
			}
			if got := since(); got != tc.first {
				t.Fatalf("the first lookup counted %+v, want %+v", got, tc.first)
			}
			second := tc.lookup(a)
			want := tc.first
			if tc.first.QoEMisses > 0 {
				want.QoEHits++
			} else {
				want.Hits++
			}
			if got := since(); got != want {
				t.Fatalf("the two lookups counted %+v, want %+v", got, want)
			}
			if first.err != second.err {
				t.Fatalf("error not replayed: %v then %v", first.err, second.err)
			}
			if !reflect.DeepEqual(first.val, second.val) {
				t.Fatalf("value not replayed: %v then %v", first.val, second.val)
			}
		})
	}
}

// TestArtifactsRebindOnWeightChange: a Sim's controller and IGP domain
// share one topology, and Domain.SetLinkWeight rewrites it in place
// without marking the artifact cache stale. The evaluator and the spreads
// outlive epochs, so only the topology's version tells the controller
// they are stale: after the change, the cache it plans through answers
// the evaluator's IGP views and spread (plain and loop-free-alternate)
// exactly as a fresh cache over the mutated topology does.
func TestArtifactsRebindOnWeightChange(t *testing.T) {
	s, err := NewSim(SimOpts{WithCtrl: true})
	if err != nil {
		t.Fatal(err)
	}
	tp, c, blue := s.Topo, s.Ctrl, topo.Fig1BluePrefixName
	b, r2 := tp.MustNode(topo.Fig1B), tp.MustNode(topo.Fig1R2)
	c.Handle(DemandEvent(blue, b, 10e6))
	c.Handle(DemandEvent(blue, tp.MustNode(topo.Fig1A), 6e6))
	alarm := AlarmEvent(alarmOn(t, tp, topo.Fig1B, topo.Fig1R2, 1.2))

	c.Handle(alarm)
	if len(c.Decisions) == 0 {
		t.Fatal("the first plan committed nothing")
	}
	before, err := c.ensureArtifacts(tp).eval.IGPView(blue)
	if err != nil {
		t.Fatal(err)
	}
	spreadBefore, _ := c.ensureArtifacts(tp).spread(blue, b, false)
	for _, n := range tp.Nodes() {
		c.ensureArtifacts(tp).spread(blue, n.ID, true)
	}

	if err := s.Domain.SetLinkWeight(b, r2, 9); err != nil {
		t.Fatal(err)
	}
	c.Handle(alarm)

	arts, fresh := c.ensureArtifacts(tp), NewPlanArtifacts(tp)
	for _, n := range tp.Nodes() {
		got, gotOK := arts.spread(blue, n.ID, true)
		want, wantOK := fresh.spread(blue, n.ID, true)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("LFA spread at %s after the weight change:\n got  %v %v\n want %v %v", tp.Name(n.ID), gotOK, got, wantOK, want)
		}
	}
	got, err := arts.eval.IGPView(blue)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.eval.IGPView(blue)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IGP views after the weight change:\n got  %v\n want %v", got, want)
	}
	if reflect.DeepEqual(want, before) {
		t.Fatal("the weight change moved no route; the test compares nothing")
	}
	gotSpread, gotOK := arts.spread(blue, b, false)
	wantSpread, wantOK := fresh.spread(blue, b, false)
	if gotOK != wantOK || !reflect.DeepEqual(gotSpread, wantSpread) {
		t.Fatalf("spread at B after the weight change:\n got  %v %v\n want %v %v", gotOK, gotSpread, wantOK, wantSpread)
	}
	if reflect.DeepEqual(wantSpread, spreadBefore) {
		t.Fatal("the weight change moved no spread; the test compares nothing")
	}
}

// repeatProblem is one planning question TestArtifactStatsRepeat and the
// shared-cache test re-ask.
type repeatProblem struct {
	tp      *topo.Topology
	demands []topo.Demand
	ev      Event
	model   qoe.Model
}

// context builds the problem's PlanContext over arts, with the stall
// predictor over the problem's viewers when withQoE is set.
func (p repeatProblem) context(arts *PlanArtifacts, withQoE bool) PlanContext {
	ctx := AnalyticPlanContextCached(arts, p.tp, p.demands, nil, p.ev, Config{})
	if withQoE {
		ctx = ctx.WithQoE(p.model)
	}
	return ctx
}

// repeatProblems is every zoo context (20 viewers per demand) plus the
// problem shaped like the ring/skew cell: on a 9-ring, a crowd of 80
// thin sessions one hop downstream of 5 fat ones, each crowd worth 1.1x a
// link, so they saturate a shared path. The fat crowd's router r5 routes
// through the hot router r6, so it is no loop-free alternate and
// lp-optimal wins with and without a stall predictor.
func repeatProblems(t *testing.T) []repeatProblem {
	t.Helper()
	var out []repeatProblem
	for _, ctx := range zooContexts(t) {
		members := map[string]map[topo.NodeID]int{}
		for _, d := range ctx.Demands {
			if members[d.PrefixName] == nil {
				members[d.PrefixName] = map[topo.NodeID]int{}
			}
			members[d.PrefixName][d.Ingress] = 20
		}
		out = append(out, repeatProblem{ctx.Topo, ctx.Demands, ctx.Event,
			qoe.Model{Members: members, Horizon: qoe.DefaultHorizon}})
	}
	ring := topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6})
	thin, fat := ring.MustNode("r6"), ring.MustNode("r5")
	demands := []topo.Demand{
		{Ingress: fat, PrefixName: topo.RingPrefixName, Volume: 11e6},
		{Ingress: thin, PrefixName: topo.RingPrefixName, Volume: 11e6},
	}
	loads, err := te.IGPLoads(ring, demands)
	if err != nil {
		t.Fatal(err)
	}
	alarm, ok := HottestLinkAlarm(ring, loads)
	if !ok {
		t.Fatal("ring skew problem has no hot link")
	}
	return append(out, repeatProblem{ring, demands, AlarmEvent(alarm), qoe.Model{
		Members: map[string]map[topo.NodeID]int{topo.RingPrefixName: {thin: 80, fat: 5}},
		Horizon: qoe.DefaultHorizon,
	}})
}

// planOutcome is what a repeat must reproduce: the winner and its lies.
func planOutcome(plan *Plan) string {
	if plan == nil {
		return "no plan"
	}
	return plan.Strategy + ":" + lieSetFingerprint(plan.Lies)
}

// TestArtifactStatsRepeat holds the cache counters to the determinism
// the scenario Reports publish them under, at the planner instead of
// through a whole scenario: the same problem planned over and over on
// fresh caches, with every core the host has, yields the same cache
// counters and the same winning lies every time. It failed within a few
// repeats while strategies raced each other to fill the cache.
func TestArtifactStatsRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const repeats = 30
	planned := 0
	for i, p := range repeatProblems(t) {
		for _, withQoE := range []bool{false, true} {
			var wantStats ArtifactStats
			var wantPlan string
			for rep := 0; rep < repeats; rep++ {
				arts := NewPlanArtifacts(p.tp)
				plan, _ := NewPlanner().Plan(p.context(arts, withQoE))
				stats, outcome := arts.Stats(), planOutcome(plan)
				if rep == 0 {
					wantStats, wantPlan = stats, outcome
					if plan != nil {
						planned++
					}
					continue
				}
				if stats != wantStats {
					t.Fatalf("problem %d predictor %v repeat %d: stats %+v, first run had %+v", i, withQoE, rep, stats, wantStats)
				}
				if outcome != wantPlan {
					t.Fatalf("problem %d predictor %v repeat %d: plan %s, first run had %s", i, withQoE, rep, outcome, wantPlan)
				}
			}
		}
	}
	if planned == 0 {
		t.Fatal("no problem produced a plan; the test compares nothing")
	}
}
