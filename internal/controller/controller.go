// Package controller implements the paper's Fibbing controller: it
// monitors link loads over SNMP, learns of new video clients from the
// servers, and — when a surge threatens congestion — computes additional
// equal-cost paths and uneven splitting ratios, compiles them into fake
// nodes, and injects them into the IGP through its point of presence.
// When the surge subsides it withdraws the lies, returning the network to
// pure IGP routing.
//
// The controller has two parts. The Planner chooses between competing
// congestion reactions: on a raised alarm every registered Strategy
// proposes a Plan (typed per-prefix lie sets plus a predicted max
// utilisation), in registration order, and the best admissible plan
// wins. The paper's tiered reactions (local ECMP, LP-optimal splits) are
// the stock strategies, and new reaction policies plug in through
// New(..., WithStrategies(...)) without touching the engine. The fixed
// lifecycle rules are controller reactions that choose nothing:
// withdrawal when the last alarm clears, the failover pin when a link
// dies, and the revert when it heals. Either way a
// southbound.Transaction commits the plan all-or-nothing.
package controller

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// planGens is the planning-input invalidation triple. The struct is
// comparable: two equal triples mean demands, installed lies and the
// liveness topology are all unchanged since the stamp was taken.
type planGens struct {
	topo   uint64
	demand uint64
	lie    uint64
}

// TargetUtil is the post-reaction utilisation the controller aims for:
// a plan at or below it satisfies the reaction, and the planner stops
// optimising there. Exported so harnesses (internal/scenarios) can bound
// their invariants against the same value.
const TargetUtil = 0.75

// DefaultMaxLPRouters is the topology-size bound for LP-based machinery
// (the lp-optimal strategy here, the LP reporting bound in
// internal/scenarios). One cold te.SolveMinMax on a 1.7x + 0.37x surge
// (2-vCPU host): fat-tree k=8 (80 routers) 0.3 ms, k=10 0.4 ms, k=16
// (320) 1.9 ms; Waxman 120 6.4 ms, Waxman 200 57 ms; Waxman 1000 56 s
// (2 448 generated paths, a 2 936-row master). Every in-tree topology up
// to fat-tree k=16 plans well under a second; Waxman 1000 is the one
// above the bound.
const DefaultMaxLPRouters = 500

// DefaultWithdrawBelow is the IGP utilisation under which lies are
// withdrawn once every alarm has cleared.
const DefaultWithdrawBelow = 0.2

// Config parameterises the controller's policy.
type Config struct {
	// ScoreMode selects what the planner optimises: ScoreUtil (the zero
	// value: max link utilisation, the historical behaviour) or ScoreQoE
	// (predicted viewer stall-seconds first). Under ScoreQoE the
	// controller equips every planning round with the QoE predictor over
	// its tracked member counts.
	ScoreMode ScoreMode
}

// Decision records one committed plan, for logs and experiments.
type Decision struct {
	At     time.Duration
	Prefix string
	// Strategy names what committed the plan: the winning strategy
	// ("local-ecmp", "lp-optimal", or a custom strategy's Name()), or a
	// controller reaction ("withdraw", "failover-pin",
	// "failover-revert").
	Strategy string
	Lies     int
	Detail   string
}

// Controller is the policy engine. It consumes typed Events (monitor
// alarms, demand changes, link liveness) and reacts: a raised alarm plans
// over its registered strategies, every other trigger runs a fixed
// reaction, and the resulting plan commits transactionally; all event
// handling runs on the simulation scheduler's goroutine.
type Controller struct {
	topo    *topo.Topology
	lies    *southbound.LieManager
	cfg     Config
	now     func() time.Duration
	planner *Planner

	// demand model: prefix -> ingress -> aggregate bit/s, maintained
	// from demand events.
	demand map[string]map[topo.NodeID]float64
	// demandPeak mirrors demand with the largest aggregate each entry
	// has reached: the scale reference for deciding an entry has
	// drained to zero. After 100k joins and 100k leaves the residual is
	// accumulated float roundoff proportional to the peak (~Gbit/s for
	// production crowds), not to any single event's delta.
	demandPeak map[string]map[topo.NodeID]float64
	// members mirrors demand with session counts: each positive-delta
	// demand event is one viewer joining, each negative-delta one
	// leaving. The counts parameterise the QoE predictor (a 100-session
	// aggregate stalls very differently from one fat flow of the same
	// volume) and are maintained unconditionally so reports can predict
	// QoE even when the planner scores on utilisation.
	members map[string]map[topo.NodeID]int

	// raised tracks links with active congestion alarms.
	raised map[topo.LinkID]bool

	// failed tracks links the liveness layer (internal/bfd) has declared
	// dead, keyed by the pair's canonical (lower) LinkID. Planning runs
	// over the topology minus these links.
	failed map[topo.LinkID]bool
	// preFailure snapshots the installed lie set at the first link
	// failure: failover plans are temporary detours, and when every
	// failed link has healed the controller reverts to this state if it
	// still evaluates better than the detour (see reactToRecovery).
	preFailure map[string][]fibbing.Lie

	// gens is the planning-input generation triple: demand changes,
	// lie-set changes (commits) and topology changes (liveness failures
	// and heals) each bump their own counter. An artifact cache stamped
	// with an older triple is stale.
	gens planGens

	// Artifact cache for the planner hot path: arts memoises SPF trees
	// and local-ecmp spreads for the planning topology, and
	// believed-topology compilations, load estimates and lp-optimal's
	// compiled overlays for the current gens epoch (see
	// ensureArtifacts). Its stats and LP solver are handed on when it
	// rebinds, so the counters stay cumulative.
	arts     *PlanArtifacts
	artsGens planGens

	// futile memoises planning rounds that produced no plan: planning
	// is a pure function of (alarmed link, demands, installed lies), so
	// while none of those change, repeated alarms (the monitor re-firing
	// a raised alarm, or many saturated links alarming round-robin) would
	// redo the identical round only to reject the identical proposals.
	// A commit or a demand change clears the whole memo, so it never
	// holds more than one entry per alarmed link between changes.
	futile map[string]bool

	Decisions []Decision
	// Errors collects reaction failures (the controller keeps running).
	Errors []error
}

// Option configures a Controller at construction.
type Option func(*Controller)

// WithConfig sets the policy knobs.
func WithConfig(cfg Config) Option {
	return func(c *Controller) { c.cfg = cfg }
}

// WithStrategies replaces the stock strategy set. Strategies propose in
// registration order, which is also the scoring tie-break.
func WithStrategies(strategies ...Strategy) Option {
	return func(c *Controller) {
		if len(strategies) > 0 {
			c.planner = NewPlanner(strategies...)
		}
	}
}

// New builds a controller injecting lies through the given manager. With
// no options it runs the stock strategies under the default policy.
func New(t *topo.Topology, lies *southbound.LieManager, now func() time.Duration, opts ...Option) *Controller {
	c := &Controller{
		topo:       t,
		lies:       lies,
		now:        now,
		planner:    NewPlanner(),
		demand:     make(map[string]map[topo.NodeID]float64),
		demandPeak: make(map[string]map[topo.NodeID]float64),
		members:    make(map[string]map[topo.NodeID]int),
		raised:     make(map[topo.LinkID]bool),
		failed:     make(map[topo.LinkID]bool),
		futile:     make(map[string]bool),
		arts:       NewPlanArtifacts(t),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Planner exposes the engine's planner (for reports and what-if tools).
func (c *Controller) Planner() *Planner { return c.planner }

// Handle is the controller's single entry point: it consumes one typed
// event, updates the demand/alarm/liveness state, and plans or runs the
// reaction the event calls for.
func (c *Controller) Handle(ev Event) {
	switch ev.Kind {
	case EventDemandChanged:
		c.applyDemand(ev)
	case EventAlarmRaised:
		c.raised[ev.Alarm.Link] = true
		c.plan(ev)
	case EventAlarmCleared:
		delete(c.raised, ev.Alarm.Link)
		c.reactToClear()
	case EventLinkDown:
		if c.markFailed(ev.Link, true) {
			if len(c.failed) == 1 {
				// First failure of this episode: remember the healthy
				// lie set so heals can restore it.
				c.preFailure = c.lies.InstalledAll()
			}
			c.reactToFailure(ev)
		}
	case EventLinkUp:
		if c.markFailed(ev.Link, false) {
			c.reactToRecovery()
		}
	}
}

// ensureArtifacts returns the artifact cache for the given planning
// topology. A new topology instance, or a weight change on the bound one,
// rebinds it and drops every memo; a move of the gens triple alone starts
// a new epoch, which drops the epoch tables and keeps the topology ones.
// The cumulative stats and the LP solve counter survive both.
func (c *Controller) ensureArtifacts(pt *topo.Topology) *PlanArtifacts {
	switch {
	case !c.arts.boundTo(pt):
		c.arts = newPlanArtifacts(pt, c.arts.stats, c.arts.solver)
	case c.artsGens != c.gens:
		c.arts.newEpoch()
	}
	c.artsGens = c.gens
	return c.arts
}

// ArtifactStats snapshots the cumulative plan-cache hit/miss counters.
func (c *Controller) ArtifactStats() ArtifactStats { return c.arts.Stats() }

// LPStats snapshots the LP solve counter.
func (c *Controller) LPStats() te.WarmLPStats { return c.arts.LPStats() }

func (c *Controller) applyDemand(ev Event) {
	m := c.demand[ev.Prefix]
	if m == nil {
		if ev.DeltaRate <= 0 {
			return
		}
		m = make(map[topo.NodeID]float64)
		c.demand[ev.Prefix] = m
	}
	m[ev.Ingress] += ev.DeltaRate
	pk := c.demandPeak[ev.Prefix]
	if pk == nil {
		pk = make(map[topo.NodeID]float64)
		c.demandPeak[ev.Prefix] = pk
	}
	if m[ev.Ingress] > pk[ev.Ingress] {
		pk[ev.Ingress] = m[ev.Ingress]
	}
	// Session counting: one event, one viewer. Zero-delta events (rate
	// renegotiations) leave the count alone.
	mem := c.members[ev.Prefix]
	if mem == nil {
		mem = make(map[topo.NodeID]int)
		c.members[ev.Prefix] = mem
	}
	switch {
	case ev.DeltaRate > 0:
		mem[ev.Ingress]++
	case ev.DeltaRate < 0 && mem[ev.Ingress] > 0:
		mem[ev.Ingress]--
	}
	// Scale-relative zero test against the entry's peak: a full drain
	// leaves add/subtract roundoff proportional to the peak aggregate,
	// far above an absolute cutoff (or the final leave's own delta) once
	// crowds reach Gbit/s. A surviving phantom entry would keep the
	// planner chasing a prefix with no real traffic.
	if m[ev.Ingress] <= 1e-9*math.Max(1, pk[ev.Ingress]) {
		delete(m, ev.Ingress)
		delete(pk, ev.Ingress)
		delete(mem, ev.Ingress)
	}
	clear(c.futile) // changed demands may make a rejected plan viable
	// Cached artifacts were computed for the old demands.
	c.gens.demand++
}

// Demands snapshots the current demand model.
func (c *Controller) Demands() []topo.Demand {
	var out []topo.Demand
	names := make([]string, 0, len(c.demand))
	for name := range c.demand {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		ingresses := make([]topo.NodeID, 0, len(c.demand[name]))
		for in := range c.demand[name] {
			ingresses = append(ingresses, in)
		}
		slices.Sort(ingresses)
		for _, in := range ingresses {
			out = append(out, topo.Demand{Ingress: in, PrefixName: name, Volume: c.demand[name][in]})
		}
	}
	return out
}

// QoEModel snapshots the controller's viewer model: the tracked member
// counts per aggregate with the default playback config (each session
// plays a fixed rate equal to its aggregate's per-session share) over
// the default prediction horizon. The snapshot is deep-copied, so
// callers may hold it across further demand events.
func (c *Controller) QoEModel() qoe.Model {
	members := make(map[string]map[topo.NodeID]int, len(c.members))
	for prefix, mem := range c.members {
		if len(mem) == 0 {
			continue
		}
		cp := make(map[topo.NodeID]int, len(mem))
		for n, v := range mem {
			cp[n] = v
		}
		members[prefix] = cp
	}
	return qoe.Model{Members: members, Horizon: qoe.DefaultHorizon}
}

// plan runs the planner for a raised alarm and commits the winning
// plan. An alarm whose installed lies already keep the prediction at
// target is stale and ignored. Strategy errors are soft as long as some
// plan commits (mirroring the old tier fallbacks); with no plan they are
// surfaced.
func (c *Controller) plan(ev Event) {
	demands := c.Demands()
	if len(demands) == 0 {
		return
	}
	// Plan over the topology minus liveness-failed links, remapping the
	// alarm into the clone's ID space (node IDs are shared). An alarm on
	// a failed link itself is obsolete: the failover path owns it.
	pt := c.topo
	if len(c.failed) > 0 {
		pt = c.planningTopo()
		l := c.topo.Link(ev.Alarm.Link)
		nl, ok := pt.FindLink(l.From, l.To)
		if !ok {
			return
		}
		ev.Alarm.Link = nl.ID
	}
	// Check the memo before building the context: a hit means identical
	// inputs to an earlier no-plan round, so even the base-utilisation
	// evaluation (a full fluid routing) would come out the same.
	key := c.planKey(ev.Alarm.Link, demands)
	if c.futile[key] {
		return
	}
	ctx := buildPlanContext(c.ensureArtifacts(pt), pt, demands, c.lies.InstalledAll(), ev, c.cfg)
	if ctx.BaseUtil <= TargetUtil {
		return // stale alarm
	}
	if c.cfg.ScoreMode != ScoreUtil {
		ctx = ctx.WithQoE(c.QoEModel())
	}
	plan, errs := c.planner.Plan(ctx)
	if plan == nil {
		for _, err := range errs {
			c.Errors = append(c.Errors, fmt.Errorf("controller: %w", err))
		}
		c.futile[key] = true
		return
	}
	c.commit(plan)
}

// planKey fingerprints a planning round's inputs. Installed lies are
// covered implicitly: they only change through commits, which clear the
// memo.
func (c *Controller) planKey(link topo.LinkID, demands []topo.Demand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d", link, c.lies.LieCount())
	for _, d := range demands {
		fmt.Fprintf(&b, "|%s:%d:%g", d.PrefixName, d.Ingress, d.Volume)
	}
	return b.String()
}

// commit applies the plan's per-prefix lie sets through one southbound
// transaction: either every prefix reconciles or none does. Any commit
// attempt clears the futile memo, since it may change the installed lies.
func (c *Controller) commit(plan *Plan) {
	clear(c.futile)
	tx := c.lies.Begin()
	prefixes := plan.Prefixes()
	for _, prefix := range prefixes {
		if err := tx.Apply(prefix, plan.Lies[prefix]); err != nil {
			c.Errors = append(c.Errors, fmt.Errorf("controller: commit %s: %w", plan.Strategy, err))
			return
		}
	}
	delta, err := tx.Commit()
	if err != nil {
		c.Errors = append(c.Errors, fmt.Errorf("controller: commit %s: %w", plan.Strategy, err))
		return
	}
	if delta.Empty() {
		return // the plan was already installed; the IGP saw no traffic
	}
	c.log(strings.Join(prefixes, ","), plan.Strategy, plan.TotalLies(), plan.Rationale)
	// The installed lie set changed; cached artifacts were computed over
	// the previous one.
	c.gens.lie++
}

func (c *Controller) log(prefix, strategy string, lies int, detail string) {
	c.Decisions = append(c.Decisions, Decision{
		At: c.now(), Prefix: prefix, Strategy: strategy, Lies: lies, Detail: detail,
	})
}
