package main

// The planner workloads: plan-cold (every plan on a fresh artifact
// cache) and plan-warm (one persistent cache per problem, generations
// unchanged). Both walk the same problem set P12 so that the only
// difference between them is whether the memo layer is hit or bypassed.

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// problem is one planning question: a topology with a crowd's demands,
// the alarm on the link plain IGP routing overloads most, and the
// scoring objective.
type problem struct {
	name    string
	tp      *topo.Topology
	demands []topo.Demand
	ev      controller.Event
	cfg     controller.Config
	// model is the viewer population behind the demands; used when cfg
	// scores on QoE.
	model qoe.Model
}

// context builds the problem's PlanContext over the given artifact cache.
func (p *problem) context(arts *controller.PlanArtifacts) controller.PlanContext {
	ctx := controller.AnalyticPlanContextCached(arts, p.tp, p.demands, nil, p.ev, p.cfg)
	if p.cfg.ScoreMode != controller.ScoreUtil {
		ctx = ctx.WithQoE(p.model)
	}
	return ctx
}

// crowd is where a flash crowd enters a topology: the two routers
// farthest from the prefix's attachment that have somewhere to spread
// to, and the bottleneck capacity of the first one's shortest path (the
// capacity plain IGP routing funnels the whole crowd through). Same
// choice as the scenario harness makes, so the planner sees the problems
// the control loop would hand it.
type crowd struct {
	prefix             string
	primary, secondary topo.NodeID
	pathCap            float64
	// uplink is the first link of the primary's shortest path.
	uplink topo.Link
}

func findCrowd(tp *topo.Topology, prefix string) (crowd, error) {
	p, ok := tp.PrefixByName(prefix)
	if !ok {
		return crowd{}, fmt.Errorf("no prefix %q", prefix)
	}
	attach := p.Attachments[0].Node
	g := spf.FromTopology(tp)
	tree := spf.Compute(g, attach, nil)
	type cand struct {
		id   topo.NodeID
		name string
		dist int64
	}
	var cands []cand
	for _, n := range tp.Nodes() {
		if n.Host || n.ID == attach || !tree.Reachable(n.ID) {
			continue
		}
		deg := 0
		for _, lid := range tp.OutLinks(n.ID) {
			if !tp.Node(tp.Link(lid).To).Host {
				deg++
			}
		}
		if deg >= 2 {
			cands = append(cands, cand{n.ID, n.Name, tree.Dist[n.ID]})
		}
	}
	if len(cands) < 2 {
		return crowd{}, fmt.Errorf("%s: fewer than two multi-homed ingress routers", prefix)
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.dist, a.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	c := crowd{prefix: prefix, primary: cands[0].id, secondary: cands[1].id, pathCap: math.Inf(1)}
	paths := spf.Compute(g, c.primary, nil).Paths(attach, 1)
	if len(paths) == 0 || len(paths[0]) < 2 {
		return crowd{}, fmt.Errorf("%s: no path from ingress", prefix)
	}
	for i := 0; i+1 < len(paths[0]); i++ {
		l, ok := tp.FindLink(paths[0][i], paths[0][i+1])
		if !ok {
			return crowd{}, fmt.Errorf("%s: path link missing", prefix)
		}
		if i == 0 {
			c.uplink = l
		}
		if l.Capacity > 0 && l.Capacity < c.pathCap {
			c.pathCap = l.Capacity
		}
	}
	if math.IsInf(c.pathCap, 1) {
		return crowd{}, fmt.Errorf("%s: uncapacitated path", prefix)
	}
	return c, nil
}

// buildProblems generates P12: the six matrix topologies, each with one
// problem scored on utilisation and one scored on QoE. The seed draws
// the crowd's size (1.65x-1.75x the IGP path's bottleneck from the
// primary ingress, a 0.35x-0.40x side crowd from the secondary) and the
// viewer counts behind it. The range is narrow on purpose: a run must
// cost the same whatever its seed, or the spread between seeds hides the
// regressions the bounds are there to catch. The topologies keep the
// matrix's pinned generator seeds, under which plain IGP routing is
// known to overload.
func buildProblems(seed int64) ([]*problem, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*problem
	for _, ts := range scenarios.MatrixTopologies() {
		tp, prefix, err := ts.Build()
		if err != nil {
			return nil, err
		}
		cr, err := findCrowd(tp, prefix)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ts.Family, err)
		}
		demands := []topo.Demand{
			{Ingress: cr.primary, PrefixName: prefix, Volume: (1.65 + 0.1*rng.Float64()) * cr.pathCap},
			{Ingress: cr.secondary, PrefixName: prefix, Volume: (0.35 + 0.05*rng.Float64()) * cr.pathCap},
		}
		model := qoe.Model{
			Members: map[string]map[topo.NodeID]int{prefix: {
				cr.primary:   60 + rng.Intn(41),
				cr.secondary: 4 + rng.Intn(5),
			}},
			Horizon: qoe.DefaultHorizon,
		}
		loads, err := te.IGPLoads(tp, demands)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ts.Family, err)
		}
		alarm, ok := controller.HottestLinkAlarm(tp, loads)
		if !ok {
			return nil, fmt.Errorf("%s: no capacitated link", ts.Family)
		}
		ev := controller.AlarmEvent(alarm)
		out = append(out,
			&problem{name: ts.Family + "@util", tp: tp, demands: demands, ev: ev, model: model},
			&problem{name: ts.Family + "@qoe", tp: tp, demands: demands, ev: ev, model: model,
				cfg: controller.Config{ScoreMode: controller.ScoreQoE}},
		)
	}
	return out, nil
}

// planFixture walks P12 through one planner. With warm set, every
// problem keeps one artifact cache for the fixture's life and build
// pays the fill, so ops see only hits; otherwise every plan starts from
// an empty cache.
type planFixture struct {
	problems []*problem
	planner  *controller.Planner
	warm     bool
	passes   int
	arts     []*controller.PlanArtifacts

	// Counters for the traced run: plans made, and the artifact-cache and
	// LP-solver counters of the cold path's throw-away caches (the warm
	// path's persistent caches keep their own).
	plans int
	cache controller.ArtifactStats
	lp    te.WarmLPStats
}

func buildPlan(warm bool, passes int) func(int64) (fixture, error) {
	return func(seed int64) (fixture, error) {
		ps, err := buildProblems(seed)
		if err != nil {
			return nil, err
		}
		f := &planFixture{problems: ps, planner: controller.NewPlanner(), warm: warm, passes: passes}
		if warm {
			f.arts = make([]*controller.PlanArtifacts, len(ps))
			for i, p := range ps {
				f.arts[i] = controller.NewPlanArtifacts(p.tp)
			}
			if _, err := f.pass(nil); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
}

// pass plans every problem once. With a hash it also folds each winning
// plan (strategy, lies, prediction) into it.
func (f *planFixture) pass(h hash.Hash) (outcome, error) {
	var out outcome
	for i, p := range f.problems {
		arts := controller.NewPlanArtifacts(p.tp)
		if f.warm {
			arts = f.arts[i]
		}
		plan, errs := f.planner.Plan(p.context(arts))
		if len(errs) > 0 {
			return out, fmt.Errorf("%s: %v", p.name, errs)
		}
		if plan == nil {
			return out, fmt.Errorf("%s: no admissible plan", p.name)
		}
		f.plans++
		if !f.warm {
			f.addStats(arts)
		}
		out.util += plan.PredictedUtil / float64(len(f.problems))
		out.lies += float64(plan.TotalLies())
		out.predStallS += plan.PredictedStall
		if h != nil {
			fmt.Fprintf(h, "%s %s %x %x\n", p.name, plan.Strategy,
				math.Float64bits(plan.PredictedUtil), math.Float64bits(plan.PredictedStall))
			for _, prefix := range plan.Prefixes() {
				for _, lie := range plan.Lies[prefix] {
					fmt.Fprintf(h, "%s %v\n", prefix, lie)
				}
			}
		}
	}
	return out, nil
}

func (f *planFixture) addStats(arts *controller.PlanArtifacts) {
	st, lp := arts.Stats(), arts.LPStats()
	f.cache.Hits += st.Hits
	f.cache.Misses += st.Misses
	f.cache.QoEHits += st.QoEHits
	f.cache.QoEMisses += st.QoEMisses
	f.lp.Warm += lp.Warm
	f.lp.Cold += lp.Cold
	f.lp.Fallback += lp.Fallback
}

func (f *planFixture) op(tick func()) (outcome, error) {
	var out outcome
	for i := 0; i < f.passes; i++ {
		var h hash.Hash
		if i == f.passes-1 {
			h = sha256.New()
		}
		o, err := f.pass(h)
		if err != nil {
			return out, err
		}
		tick()
		if i > 0 && (o.util != out.util || o.lies != out.lies || o.predStallS != out.predStallS) {
			return out, fmt.Errorf("pass %d selected different plans than pass 0", i)
		}
		out = o
		if h != nil {
			h.Sum(out.digest[:0])
		}
	}
	return out, nil
}
