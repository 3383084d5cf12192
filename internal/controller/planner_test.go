package controller

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

func alarmOn(t *testing.T, tp *topo.Topology, a, b string, util float64) monitor.Alarm {
	t.Helper()
	l, ok := tp.FindLink(tp.MustNode(a), tp.MustNode(b))
	if !ok {
		t.Fatalf("no link %s-%s", a, b)
	}
	return monitor.Alarm{Link: l.ID, Name: a + "-" + b, Utilisation: util, Raised: true}
}

// TestStockStrategySelection is the table-driven selection test: each
// stock strategy wins on a topology crafted for it, and local-ecmp
// recruits an uphill loop-free alternate only when QoE scoring is live,
// and never a neighbour whose route runs back through the hot router.
func TestStockStrategySelection(t *testing.T) {
	fig1 := topo.Fig1(topo.Fig1Opts{})
	blue := topo.Fig1BluePrefixName
	b := fig1.MustNode("B")
	a := fig1.MustNode("A")

	ring := topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6})
	r4 := ring.MustNode("r4")
	ringSurge := []topo.Demand{{Ingress: r4, PrefixName: topo.RingPrefixName, Volume: 14e6}}
	ringAlarm := func() Event { return AlarmEvent(alarmOn(t, ring, "r4", "r3", 0.99)) }
	ringSet := []Strategy{LocalECMPStrategy{}}
	// The ring surge is 80 thin sessions.
	thinCrowd := qoe.Model{
		Members: map[string]map[topo.NodeID]int{topo.RingPrefixName: {r4: 80}},
		Horizon: qoe.DefaultHorizon,
	}
	// Two crowds one hop apart behind r6: r5's shortest route runs
	// through r6 (4 = 1 + 3 hops), so r5 is no loop-free alternate for
	// the hot router r6.
	r5, r6 := ring.MustNode("r5"), ring.MustNode("r6")
	backCrowds := []topo.Demand{
		{Ingress: r5, PrefixName: topo.RingPrefixName, Volume: 11e6},
		{Ingress: r6, PrefixName: topo.RingPrefixName, Volume: 11e6},
	}
	backModel := qoe.Model{
		Members: map[string]map[topo.NodeID]int{topo.RingPrefixName: {r6: 80, r5: 5}},
		Horizon: qoe.DefaultHorizon,
	}
	// The same ring with a stub router hanging off r4: its only route
	// runs through r4, so recruiting it next to r5 would loop the spread.
	spur := topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6})
	spur.AddLink(spur.MustNode("r4"), spur.AddNode("x"), 1, topo.LinkOpts{Capacity: 10e6})

	cases := []struct {
		name    string
		topo    *topo.Topology
		demands []topo.Demand
		event   func() Event
		// strategies is the planner's set; nil is the stock one.
		strategies []Strategy
		mode       ScoreMode
		// model, when set, equips the context with this viewer model
		// (WithQoE); nil leaves PredictQoE nil.
		model *qoe.Model
		// want is the winner; empty wants no plan.
		want string
		// wantLie, when set, is the winner's only lie, as "@attach via
		// next-hop" in node IDs.
		wantLie string
	}{
		{
			// A single surge at B: spreading at the hot router reaches the
			// target with one lie — the cheapest satisfying plan.
			name:    "local-ecmp",
			topo:    fig1,
			demands: []topo.Demand{{Ingress: b, PrefixName: blue, Volume: 15e6}},
			event:   func() Event { return AlarmEvent(alarmOn(t, fig1, "B", "R2", 0.94)) },
			want:    "local-ecmp",
		},
		{
			// The paper's wave 3: surges at A and B overload both B links;
			// only the LP's uneven splits reach the target.
			name: "lp-optimal",
			topo: fig1,
			demands: []topo.Demand{
				{Ingress: a, PrefixName: blue, Volume: 15.5e6},
				{Ingress: b, PrefixName: blue, Volume: 15.5e6},
			},
			event: func() Event { return AlarmEvent(alarmOn(t, fig1, "B", "R2", 0.99)) },
			want:  "lp-optimal",
		},
		{
			// The ring is the worst case for local spreading: r5, the only
			// alternative, is uphill (4 hops to r0, as from r4), the long
			// way around. It is a loop-free alternate (4 < 1 + 4), and the
			// LP is left out, so only the widened test can recruit it.
			name:       "local-ecmp recruits an uphill loop-free alternate under QoE scoring",
			topo:       ring,
			demands:    ringSurge,
			event:      ringAlarm,
			strategies: ringSet,
			mode:       ScoreQoE,
			model:      &thinCrowd,
			want:       "local-ecmp",
			wantLie:    "@4 via 5",
		},
		{
			// "ksp" names the uphill detour a k-shortest-path plan would
			// take around the ring; under util scoring nothing places it.
			name:       "ksp abstains under util scoring",
			topo:       ring,
			demands:    ringSurge,
			event:      ringAlarm,
			strategies: ringSet,
		},
		{
			// ScoreQoE without a stall predictor falls back to
			// utilisation, as PlanContext.PredictQoE says, so the uphill
			// detour stays off here too.
			name:       "ksp abstains without a predictor",
			topo:       ring,
			demands:    ringSurge,
			event:      ringAlarm,
			strategies: ringSet,
			mode:       ScoreQoE,
		},
		{
			name:       "local-ecmp recruits the alternate but not a stub behind the hot router",
			topo:       spur,
			demands:    ringSurge,
			event:      func() Event { return AlarmEvent(alarmOn(t, spur, "r4", "r3", 0.99)) },
			strategies: ringSet,
			mode:       ScoreQoE,
			model:      &thinCrowd,
			want:       "local-ecmp",
			wantLie:    "@4 via 5",
		},
		{
			name:       "local-ecmp never recruits a neighbour routing through the hot router",
			topo:       ring,
			demands:    backCrowds,
			event:      func() Event { return AlarmEvent(alarmOn(t, ring, "r6", "r7", 0.99)) },
			strategies: ringSet,
			mode:       ScoreQoE,
			model:      &backModel,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := AnalyticPlanContext(tc.topo, tc.demands, nil, tc.event(), Config{ScoreMode: tc.mode})
			if tc.model != nil {
				ctx = ctx.WithQoE(*tc.model)
			}
			planner := NewPlanner(tc.strategies...)
			plan, errs := planner.Plan(ctx)
			for _, err := range errs {
				t.Logf("strategy error: %v", err)
			}
			if tc.want == "" {
				if plan != nil {
					t.Fatalf("committed %+v, want no plan", plan)
				}
				return
			}
			if plan == nil {
				t.Fatalf("no plan committed (base %.3f)", ctx.BaseUtil)
			}
			if plan.Strategy != tc.want {
				t.Fatalf("winner = %s (util %.3f, %d lies), want %s",
					plan.Strategy, plan.PredictedUtil, plan.TotalLies(), tc.want)
			}
			if tc.wantLie != "" {
				var got []string
				for _, lies := range plan.Lies {
					for _, l := range lies {
						got = append(got, fmt.Sprintf("@%d via %d", l.Attach, l.Via))
					}
				}
				if len(got) != 1 || got[0] != tc.wantLie {
					t.Fatalf("lies = %v, want [%s]", got, tc.wantLie)
				}
			}
			if plan.PredictedUtil > ctx.BaseUtil+1e-6 {
				t.Fatalf("winning plan worsens predicted util: %.3f > base %.3f",
					plan.PredictedUtil, ctx.BaseUtil)
			}
		})
	}
}

// TestPlannerProposesInRegistrationOrder pins the planner's one code
// path: strategies are called in registration order on the caller's
// goroutine, plans and errors come back in that order, and neither an
// erroring nor an abstaining strategy in the middle stops the rest.
func TestPlannerProposesInRegistrationOrder(t *testing.T) {
	var calls []string
	record := func(name string, plan bool, err error) Strategy {
		return strategyFunc{name: name, propose: func(PlanContext) (*Plan, error) {
			calls = append(calls, name)
			if plan {
				return &Plan{Strategy: name}, err
			}
			return nil, err
		}}
	}
	planner := NewPlanner(
		record("p1", true, nil),
		record("e1", false, fmt.Errorf("boom one")),
		record("abstains", false, nil),
		record("p2", true, nil),
		record("e2", true, fmt.Errorf("boom two")), // a plan beside an error is dropped
		record("p3", true, nil),
	)
	fig1 := topo.Fig1(topo.Fig1Opts{})
	ctx := AnalyticPlanContext(fig1, nil, nil, Event{Kind: EventAlarmRaised}, Config{})
	plans, errs := planner.ProposeAll(ctx)

	if got, want := fmt.Sprint(calls), "[p1 e1 abstains p2 e2 p3]"; got != want {
		t.Fatalf("call order = %s, want registration order %s", got, want)
	}
	var planned []string
	for _, p := range plans {
		planned = append(planned, p.Strategy)
	}
	if got, want := fmt.Sprint(planned), "[p1 p2 p3]"; got != want {
		t.Fatalf("plans = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(errs), "[strategy e1: boom one strategy e2: boom two]"; got != want {
		t.Fatalf("errors = %s, want %s", got, want)
	}
	perf := planner.Perf()
	for name, want := range map[string]int{"p1": 1, "e1": 0, "abstains": 0, "p2": 1, "e2": 0, "p3": 1} {
		if sp, ok := perf[name]; !ok || sp.Proposals != want {
			t.Fatalf("perf[%s] = %+v (present %v), want %d proposals", name, sp, ok, want)
		}
	}
}

// TestStrategyPanicReachesCaller: a panicking strategy unwinds through
// Plan's caller, where the scheduler's panic capture (or any deferred
// recover) can see it. On a planner-owned goroutine it could not be
// recovered by anyone and took the whole process down.
func TestStrategyPanicReachesCaller(t *testing.T) {
	ran := false
	planner := NewPlanner(
		strategyFunc{name: "fine", propose: func(PlanContext) (*Plan, error) { ran = true; return nil, nil }},
		strategyFunc{name: "bad", propose: func(PlanContext) (*Plan, error) { panic("strategy bug") }},
	)
	fig1 := topo.Fig1(topo.Fig1Opts{})
	ctx := AnalyticPlanContext(fig1, nil, nil, Event{Kind: EventAlarmRaised}, Config{})
	var got any
	func() {
		defer func() { got = recover() }()
		planner.Plan(ctx)
	}()
	if got != "strategy bug" {
		t.Fatalf("recovered %v, want the strategy's panic", got)
	}
	if !ran {
		t.Fatal("the strategy registered before the panicking one never ran")
	}
}

// countingInjector accepts every LSA unless failAt (1-based) is hit.
type countingInjector struct {
	failAt int
	calls  int
}

func (f *countingInjector) Inject(*ospf.LSA) error {
	f.calls++
	if f.failAt > 0 && f.calls == f.failAt {
		return fmt.Errorf("injector down (call %d)", f.calls)
	}
	return nil
}

// zooContexts builds raised-alarm planning contexts across the topology
// zoo with seeded random demands.
func zooContexts(t *testing.T) []PlanContext {
	t.Helper()
	type zt struct {
		name string
		tp   *topo.Topology
	}
	var tops []zt
	tops = append(tops, zt{"fig1", topo.Fig1(topo.Fig1Opts{})})
	tops = append(tops, zt{"ring9", topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6})})
	tops = append(tops, zt{"fattree4", topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 1})})
	tops = append(tops, zt{"waxman16", topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: 10e6, MaxWeight: 5, Seed: 0})})
	for seed := int64(1); seed <= 2; seed++ {
		tops = append(tops, zt{fmt.Sprintf("random12-%d", seed), topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: seed,
		})})
	}
	var out []PlanContext
	for _, z := range tops {
		for seed := int64(1); seed <= 3; seed++ {
			demands := topo.RandomDemands(z.tp, 4, 3e6, 9e6, seed)
			loads, err := te.IGPLoads(z.tp, demands)
			if err != nil {
				t.Fatalf("%s: %v", z.name, err)
			}
			alarm, ok := HottestLinkAlarm(z.tp, loads)
			if !ok {
				continue
			}
			out = append(out, AnalyticPlanContext(z.tp, demands, nil, AlarmEvent(alarm), Config{}))
		}
	}
	return out
}

// TestPlannerNeverWorsensAcrossZoo is the zoo property test: whatever the
// topology and demand set, a committed plan's predicted max utilisation
// never exceeds the no-op plan's, and the plan's claimed prediction is
// honest (re-evaluating its lies reproduces it).
func TestPlannerNeverWorsensAcrossZoo(t *testing.T) {
	planner := NewPlanner()
	plans := 0
	for _, ctx := range zooContexts(t) {
		plan, _ := planner.Plan(ctx)
		if plan == nil {
			continue
		}
		plans++
		if plan.PredictedUtil > ctx.BaseUtil+1e-6 {
			t.Fatalf("%s plan worsens predicted util: %.4f > base %.4f",
				plan.Strategy, plan.PredictedUtil, ctx.BaseUtil)
		}
		again, err := ctx.Evaluate(plan.Lies)
		if err != nil {
			t.Fatalf("re-evaluating %s plan: %v", plan.Strategy, err)
		}
		if diff := again - plan.PredictedUtil; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s plan prediction dishonest: claims %.6f, evaluates %.6f",
				plan.Strategy, plan.PredictedUtil, again)
		}
	}
	if plans == 0 {
		t.Fatal("no context produced a plan; the property was never exercised")
	}
}

// TestCommitRollbackAcrossZoo is the rollback half of the zoo property:
// committing a plan through a Transaction whose injector dies at every
// possible call leaves the installed lies exactly as they were — no
// half-installed multi-prefix state.
func TestCommitRollbackAcrossZoo(t *testing.T) {
	planner := NewPlanner()
	checked := 0
	for _, ctx := range zooContexts(t) {
		plan, _ := planner.Plan(ctx)
		if plan == nil {
			continue
		}
		// Baseline state: a previous (smaller) plan is installed — take
		// the first lie of each prefix — so rollback must restore
		// something, not just clear.
		baseline := make(map[string][]fibbing.Lie)
		for prefix, lies := range plan.Lies {
			if len(lies) > 0 {
				baseline[prefix] = lies[:1]
			}
		}
		for failAt := 1; ; failAt++ {
			inj := &countingInjector{}
			mgr := southbound.NewLieManager(inj, ospf.ControllerIDBase)
			for prefix, lies := range baseline {
				if _, err := mgr.Apply(prefix, lies); err != nil {
					t.Fatal(err)
				}
			}
			inj.failAt = inj.calls + failAt
			tx := mgr.Begin()
			var commitErr error
			for _, prefix := range plan.Prefixes() {
				if commitErr = tx.Apply(prefix, plan.Lies[prefix]); commitErr != nil {
					break
				}
			}
			if commitErr == nil {
				// The injector never hit failAt: the whole commit fits in
				// fewer calls, so every failure point has been tested.
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				break
			}
			got := mgr.InstalledAll()
			if len(got) != len(baseline) {
				t.Fatalf("failAt=%d: %d prefixes installed after rollback, want %d",
					failAt, len(got), len(baseline))
			}
			for prefix, want := range baseline {
				lies := got[prefix]
				if len(lies) != len(want) || lies[0] != want[0] {
					t.Fatalf("failAt=%d: prefix %s = %v after rollback, want %v",
						failAt, prefix, lies, want)
				}
			}
		}
		checked++
		if checked >= 6 {
			break // bounded: every failure point of six zoo plans
		}
	}
	if checked == 0 {
		t.Fatal("no plan to roll back; the property was never exercised")
	}
}

// TestCustomStrategyEndToEnd registers a custom strategy on a live
// controller via WithStrategies and drives it through the typed event
// API: the custom plan must be committed through the transaction and
// logged as a decision.
func TestCustomStrategyEndToEnd(t *testing.T) {
	fig1 := topo.Fig1(topo.Fig1Opts{})
	blue := topo.Fig1BluePrefixName
	inj := &countingInjector{}
	lies := southbound.NewLieManager(inj, ospf.ControllerIDBase)

	custom := strategyFunc{
		name: "pin-b",
		propose: func(ctx PlanContext) (*Plan, error) {
			dag := fibbing.DAG{fig1.MustNode("B"): fibbing.NextHopWeights{
				fig1.MustNode("R2"): 1, fig1.MustNode("R3"): 1,
			}}
			aug, err := fibbing.AugmentAddPaths(ctx.Topo, blue, dag)
			if err != nil {
				return nil, err
			}
			overlay := map[string][]fibbing.Lie{blue: aug.Lies}
			util, err := ctx.Evaluate(overlay)
			if err != nil {
				return nil, err
			}
			return &Plan{Strategy: "pin-b", Lies: overlay, PredictedUtil: util, Rationale: "custom"}, nil
		},
	}
	ctrl := New(fig1, lies, func() time.Duration { return 42 * time.Second },
		WithStrategies(custom))
	ctrl.Handle(DemandEvent(blue, fig1.MustNode("B"), 15e6))
	ctrl.Handle(AlarmEvent(alarmOn(t, fig1, "B", "R2", 0.94)))

	if len(ctrl.Errors) > 0 {
		t.Fatalf("controller errors: %v", ctrl.Errors)
	}
	if len(ctrl.Decisions) != 1 || ctrl.Decisions[0].Strategy != "pin-b" {
		t.Fatalf("decisions = %+v, want one pin-b commit", ctrl.Decisions)
	}
	if lies.LieCount() == 0 {
		t.Fatal("custom plan not installed")
	}
}

// strategyFunc adapts a closure into a Strategy.
type strategyFunc struct {
	name    string
	propose func(PlanContext) (*Plan, error)
}

func (s strategyFunc) Name() string                           { return s.name }
func (s strategyFunc) Propose(ctx PlanContext) (*Plan, error) { return s.propose(ctx) }

// TestStrategyNameResolution covers the flag-format parsing used by
// fiblab/fibsim/fibbingd: a parsed set is exactly the named strategies.
func TestStrategyNameResolution(t *testing.T) {
	set, err := ParseStrategies("localecmp,lpoptimal")
	if err != nil {
		t.Fatal(err)
	}
	got := StrategyNames(set)
	want := []string{"local-ecmp", "lp-optimal"}
	if len(got) != len(want) {
		t.Fatalf("strategies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strategies = %v, want %v", got, want)
		}
	}
	if _, err := ParseStrategies("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// ksp is not a stock strategy: the error names the stock set.
	if _, err := ParseStrategies("ksp"); err == nil || !strings.Contains(err.Error(), "(stock: local-ecmp, lp-optimal)") {
		t.Fatalf("ksp: err = %v, want an unknown-strategy error listing the stock set", err)
	}
	if set, err := ParseStrategies(""); err != nil || set != nil {
		t.Fatalf("empty csv: set=%v err=%v", set, err)
	}
}
