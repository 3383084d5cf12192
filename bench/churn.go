package main

// The igp-churn workload: the control-plane simulation core alone. A
// converged fat-tree k=8 IGP domain (80 switches, 128 hosts) has core
// link weights flipped and restored, then a planner-produced lie set
// injected and withdrawn. No traffic, no monitor, no players: event
// loop, OSPF flooding, SPF (full, incremental, per-prefix), FIB diffs.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

const (
	// churnChanges is how many weight flips and how many lie injections
	// one op makes; each is followed by its undo, so an op converges the
	// domain 4 * churnChanges times and leaves it as it found it.
	churnChanges = 4
	// convergeLimit bounds one convergence in simulated time.
	convergeLimit = 24 * time.Hour
)

type churnFixture struct {
	tp     *topo.Topology
	sched  *event.Scheduler
	dom    *ospf.Domain
	lies   *southbound.LieManager
	prefix string
	// links are the fabric's switch-to-switch links in seeded order.
	links []topo.Link
	// plan is the lie set the op injects: what the planner proposes for
	// a crowd on this fabric.
	plan     []fibbing.Lie
	planUtil float64
	// fibs is the digest of every router's converged FIB; an op must
	// leave it unchanged.
	fibs [sha256.Size]byte
	// The domain's counters as the cold convergence left them, so the
	// traced run can report per-op figures.
	cold                   ospf.ControlPlaneStats
	coldPar                event.ParallelStats
	coldEvents             uint64
	coldDeltas, coldRoutes int

	// rec, when set, records a span per convergence and per southbound
	// call; the op is otherwise the same code traced or not.
	rec *recorder
	// Counters for the traced run: ops made, FIB deltas and changed
	// routes seen, lie LSAs injected.
	ops, deltas, deltaRoutes, injected int
}

func buildChurn(seed int64) (fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	tp, prefix, err := scenarios.TopoSpec{Family: "fattree", Size: 8, Seed: 2}.Build()
	if err != nil {
		return nil, err
	}
	f := &churnFixture{tp: tp, prefix: prefix, sched: event.NewScheduler()}
	f.dom = ospf.NewDomain(tp, f.sched, ospf.Config{})
	f.dom.OnFIBDelta = func(_ topo.NodeID, _ *fib.Table, d *fib.Diff) {
		f.deltas++
		f.deltaRoutes += len(d.Changes)
	}
	f.dom.Start()
	if _, err := f.dom.RunUntilConverged(convergeLimit); err != nil {
		return nil, err
	}

	// Core links: both ends are switches. The seed fixes the order in
	// which ops walk them.
	var core []topo.Link
	for _, l := range tp.Links() {
		if !tp.Node(l.From).Host && !tp.Node(l.To).Host && l.From < l.To {
			core = append(core, l)
		}
	}
	rng.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	f.links = core

	// The lie set: plan for a crowd at the farthest ingress.
	cr, err := findCrowd(tp, prefix)
	if err != nil {
		return nil, err
	}
	demands := []topo.Demand{
		{Ingress: cr.primary, PrefixName: prefix, Volume: (1.68 + 0.04*rng.Float64()) * cr.pathCap},
	}
	loads, err := te.IGPLoads(tp, demands)
	if err != nil {
		return nil, err
	}
	// Every link of the crowd's single IGP path is equally hot; the
	// alarm that has a remedy is the one on the ingress's own uplink,
	// where the fabric still offers other ways up.
	alarm := monitor.Alarm{
		Link:        cr.uplink.ID,
		Name:        tp.Name(cr.uplink.From) + "-" + tp.Name(cr.uplink.To),
		Utilisation: loads[cr.uplink.ID] / cr.uplink.Capacity,
		Raised:      true,
	}
	ctx := controller.AnalyticPlanContext(tp, demands, nil, controller.AlarmEvent(alarm), controller.Config{})
	plan, errs := controller.NewPlanner().Plan(ctx)
	if len(errs) > 0 {
		return nil, fmt.Errorf("igp-churn: planner: %v", errs)
	}
	if plan == nil || len(plan.Lies[prefix]) == 0 {
		return nil, fmt.Errorf("igp-churn: planner proposed no lies")
	}
	f.plan, f.planUtil = plan.Lies[prefix], plan.PredictedUtil

	// The controller's point of presence: the switch at one end of the
	// first churned link.
	pop := f.dom.Router(tp.Link(f.links[0].ID).From)
	f.lies = southbound.NewLieManager(southbound.DirectInjector{Router: pop}, ospf.ControllerIDBase)
	f.fibs = f.fibDigest()
	f.cold, f.coldPar, f.coldEvents = f.dom.Stats(), f.sched.Parallel(), f.sched.Ran()
	f.coldDeltas, f.coldRoutes = f.deltas, f.deltaRoutes
	return f, nil
}

// converge runs the domain to convergence and returns the simulated time
// it took.
func (f *churnFixture) converge() (time.Duration, error) {
	start := f.sched.Now()
	end, err := f.dom.RunUntilConverged(start + convergeLimit)
	return end - start, err
}

func (f *churnFixture) fibDigest() (sum [sha256.Size]byte) {
	h := sha256.New()
	for _, n := range f.tp.Nodes() {
		if r := f.dom.Router(n.ID); r != nil {
			fmt.Fprintf(h, "%d\n%s", n.ID, r.FIB())
		}
	}
	h.Sum(sum[:0])
	return sum
}

func (f *churnFixture) op(tick func()) (outcome, error) {
	var out outcome
	var simTotal time.Duration
	h := sha256.New()
	converge := func(span string) error {
		id := f.rec.begin(span)
		d, err := f.converge()
		f.rec.end(id)
		simTotal += d
		fmt.Fprintf(h, "%d ", d)
		return err
	}
	// Each op flips the next churnChanges links of the seeded order, so
	// a run walks most of the fabric whatever its seed.
	for j := 0; j < churnChanges; j++ {
		l := f.links[(f.ops*churnChanges+j)%len(f.links)]
		for _, w := range [2]int64{l.Weight + 1, l.Weight} {
			if err := f.dom.SetLinkWeight(l.From, l.To, w); err != nil {
				return out, err
			}
			if err := converge("ospf.converge_weight"); err != nil {
				return out, err
			}
		}
		tick()
	}
	f.ops++
	for i := 0; i < churnChanges; i++ {
		for _, desired := range [2][]fibbing.Lie{f.plan, nil} {
			id := f.rec.begin("southbound.apply")
			delta, err := f.lies.Apply(f.prefix, desired)
			f.rec.end(id)
			if err != nil {
				return out, err
			}
			f.injected += len(delta.Injected)
			if err := converge("ospf.converge_lie"); err != nil {
				return out, err
			}
		}
		tick()
	}

	if errs := f.dom.Errors; len(errs) > 0 {
		return out, fmt.Errorf("protocol errors: %v", errs)
	}
	out.util = f.planUtil
	out.lies = float64(len(f.plan))
	out.convergeMs = ms(simTotal) / (4 * churnChanges)
	fmt.Fprintf(h, "%x", math.Float64bits(f.planUtil))
	h.Sum(out.digest[:0])
	return out, nil
}

// check verifies, outside the timed region, that the op left every
// router's FIB as the cold convergence built it: the weight restores and
// lie withdrawals must undo their changes exactly, whichever SPF path
// (full, incremental, per-prefix) recomputed them.
func (f *churnFixture) check() error {
	if f.fibDigest() != f.fibs {
		return fmt.Errorf("igp-churn: FIBs differ from the converged baseline after restore")
	}
	return nil
}

// traced is the op itself with the recorder switched on.
func (f *churnFixture) traced(rec *recorder) error {
	root := rec.begin("harness.op")
	defer rec.end(root)
	f.rec = rec
	defer func() { f.rec = nil }()
	if _, err := f.op(func() {}); err != nil {
		return err
	}
	return f.check()
}

// layers reports the control plane's counters per op since the cold
// convergence, and direct probes of SPF and forwarding on the fabric.
func (f *churnFixture) layers(m metricSet) {
	ops := float64(f.ops)
	if ops == 0 {
		return
	}
	st, par := f.dom.Stats(), f.sched.Parallel()
	per := func(total, cold uint64) float64 { return float64(total-cold) / ops }
	m["event.events_per_op"] = per(f.sched.Ran(), f.coldEvents)
	m["event.parallel_batches"] = per(par.Batches, f.coldPar.Batches)
	m["event.max_batch"] = float64(par.MaxBatch)
	m["ospf.spf_full_runs"] = per(st.SPFFullRuns, f.cold.SPFFullRuns)
	m["ospf.spf_incremental_runs"] = per(st.SPFIncrementalRuns, f.cold.SPFIncrementalRuns)
	m["ospf.spf_incremental_ratio"] = ratio(float64(st.SPFIncrementalRuns-f.cold.SPFIncrementalRuns), float64(st.SPFRuns-f.cold.SPFRuns))
	m["ospf.packets_sent"] = per(st.PacketsSent, f.cold.PacketsSent)
	m["ospf.fib_deltas"] = float64(f.deltas-f.coldDeltas) / ops
	m["fib.diff_routes"] = float64(f.deltaRoutes-f.coldRoutes) / ops
	m["southbound.lsas_injected"] = float64(f.injected) / ops
	m["fibbing.lies"] = float64(len(f.plan))

	g := spf.FromTopology(f.tp)
	skip := spf.HostSkip(f.tp)
	src := f.links[0].From
	var tree *spf.Tree
	m["spf.compute_us"] = probeNs(200, func() { tree = spf.Compute(g, src, skip) }) / 1e3
	bumped, changes := bumpWeight(g, f.links[0]) // the link leaves src, so the bump dirties part of src's tree
	m["spf.incremental_us"] = probeNs(200, func() { spf.Incremental(bumped, tree, changes, skip) }) / 1e3
	cr, err := findCrowd(f.tp, f.prefix)
	if err != nil {
		return
	}
	p, _ := f.tp.PrefixByName(f.prefix)
	dst := p.Attachments[0].Node
	m["spf.kshortest_us"] = probeNs(20, func() { spf.KShortest(g, cr.primary, dst, 4, skip) }) / 1e3

	key := fib.FlowKey{Src: ospf.Loopback(cr.primary), Dst: ospf.HostAddr(p.Prefix, 7), SrcPort: 10007, DstPort: 8080, Proto: 6}
	plane := f.dom.Plane()
	m["fib.trace_us"] = probeNs(2000, func() { plane.Trace(cr.primary, key) }) / 1e3
	table := f.dom.Router(cr.primary).FIB()
	m["lpm.lookup_ns"] = probeNs(20000, func() { table.Lookup(key.Dst) })
}
