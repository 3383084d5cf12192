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
// dies, and the revert when it heals; a failure the pin cannot answer and
// a heal the revert does not undo run the one planning round on the
// hottest link. Every reaction returns a Reaction, which Handle alone
// commits (one LieManager.Commit, all-or-nothing) and records.
package controller

import (
	"fmt"
	"maps"
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

// Decision records one committed plan, for logs and experiments.
type Decision struct {
	At     time.Duration
	Prefix string
	// Strategy names the winning strategy or the controller reaction
	// ("withdraw", "failover-pin", "failover-revert") that committed.
	Strategy string
	Lies     int
	Detail   string
}

// Reaction records a trigger that ran a planning round, committed or
// failed; Decisions, Errors and the planner's proposal and win counts are
// its projections. It holds simulated time and deterministic values only;
// a non-finite number (a failed evaluation) is left out, as encoding/json
// rejects it.
type Reaction struct {
	At      time.Duration `json:"at"`
	Trigger string        `json:"trigger"` // the event kind's String()
	Link    string        `json:"link"`    // the trigger's link, "From-To"
	// The round, if one ran: the no-op plan's utilisation and (in a
	// stall-order round) stall score, and each proposal in registration
	// order.
	BaseUtil   *float64    `json:"base_util,omitempty"`
	BaseStall  *float64    `json:"base_stall,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	// What committed (empty when no lie changed), or what failed.
	Strategy string   `json:"strategy,omitempty"`
	Lies     int      `json:"lies,omitempty"`
	Errors   []string `json:"errors,omitempty"`
	// Stranded names ("prefix@ingress") the demand the round left out:
	// ingresses with no route to their prefix on the live topology.
	Stranded []string `json:"stranded,omitempty"`

	plan *Plan   // for Handle to commit
	errs []error // failures before the commit
}

// Candidate is one proposal with Select's verdict on it: won, outscored
// or inadmissible. PredictedStall is set in a stall-order round only
// (see Planner.Select).
type Candidate struct {
	Strategy       string   `json:"strategy"`
	PredictedUtil  *float64 `json:"predicted_util,omitempty"`
	LieCost        int      `json:"lie_cost"`
	PredictedStall *float64 `json:"predicted_stall,omitempty"`
	Verdict        string   `json:"verdict"`
}

// roundRecord records a planning round: its baseline and Select's
// verdict on each proposal (best is the winner).
func roundRecord(ctx PlanContext, plans []*Plan, best *Plan) *Reaction {
	byStall := stallOrder(ctx, plans)
	r := &Reaction{BaseUtil: finite(ctx.BaseUtil, true), BaseStall: finite(ctx.BaseStall, byStall)}
	for _, p := range plans {
		verdict := "outscored"
		switch {
		case p == best:
			verdict = "won"
		case !admissible(ctx, p, byStall):
			verdict = "inadmissible"
		}
		r.Candidates = append(r.Candidates, Candidate{Strategy: p.Strategy, PredictedUtil: finite(p.PredictedUtil, true),
			LieCost: p.LieCost, PredictedStall: finite(p.PredictedStall, byStall), Verdict: verdict})
	}
	return r
}

// finite points at v if it is wanted and finite, and is nil otherwise.
func finite(v float64, want bool) *float64 {
	if !want || math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// Controller is the policy engine. It consumes typed Events (monitor
// alarms, demand changes, link liveness) and reacts: a raised alarm plans
// over its registered strategies, every other trigger runs a fixed
// reaction, and the resulting plan commits all-or-nothing; all event
// handling runs on the simulation scheduler's goroutine.
type Controller struct {
	topo    *topo.Topology
	lies    *southbound.LieManager
	now     func() time.Duration
	planner *Planner

	// demand model: prefix -> ingress -> aggregate, maintained from
	// demand events.
	demand map[string]map[topo.NodeID]*demandEntry

	// raised tracks links with active congestion alarms.
	raised map[topo.LinkID]bool

	// failed tracks links the liveness layer (internal/bfd) has declared
	// dead, keyed by the pair's canonical (lower) LinkID. live is topo
	// minus these links, rebuilt by markFailed: every reaction plans
	// over it (node IDs are shared, link IDs are not).
	failed map[topo.LinkID]bool
	live   *topo.Topology
	// preFailure snapshots the installed lie set at the first link
	// failure: failover plans are temporary detours, and when every
	// failed link has healed the controller reverts to this state if it
	// still evaluates better than the detour (see reactToRecovery).
	preFailure map[string][]fibbing.Lie

	// Artifact cache for the planner hot path: arts memoises SPF trees
	// and local-ecmp spreads for the planning topology, and
	// believed-topology compilations, load estimates and lp-optimal's
	// compiled overlays for the current epoch (see ensureArtifacts). Its
	// stats and LP solver are handed on when it rebinds, so the counters
	// stay cumulative. stale is set when a planning input moves (a demand
	// change, a commit that changed the lies, a liveness change): the
	// next ensureArtifacts starts a new epoch.
	arts  *PlanArtifacts
	stale bool

	// futile memoises the alarmed links whose planning round found no
	// plan: while demands, installed lies and failed links stay put, a
	// repeated alarm would redo the identical round. A demand change, a
	// commit and a liveness change clear the memo, so the link alone
	// keys it.
	futile map[topo.LinkID]bool

	// Reactions records every reaction; Decisions (the commits that
	// changed the lies) and Errors are its projections.
	Decisions []Decision
	Errors    []error
	Reactions []Reaction
}

// Option configures a Controller at construction.
type Option func(*Controller)

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
// no options it runs the stock strategies.
func New(t *topo.Topology, lies *southbound.LieManager, now func() time.Duration, opts ...Option) *Controller {
	c := &Controller{
		topo:    t,
		lies:    lies,
		now:     now,
		planner: NewPlanner(),
		demand:  make(map[string]map[topo.NodeID]*demandEntry),
		raised:  make(map[topo.LinkID]bool),
		failed:  make(map[topo.LinkID]bool),
		live:    t,
		futile:  make(map[topo.LinkID]bool),
		arts:    NewPlanArtifacts(t),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Planner exposes the engine's planner (for reports and what-if tools).
func (c *Controller) Planner() *Planner { return c.planner }

// Handle is the controller's single entry point: it consumes one typed
// event, updates the demand/alarm/liveness state, runs the reaction the
// event calls for, and is the one site that commits and records it.
func (c *Controller) Handle(ev Event) {
	// What the routers still believe until the IGP hears of a failure:
	// the live topology as it stands before this event.
	believed := c.live
	switch ev.Kind {
	case EventDemandChanged:
		c.applyDemand(ev)
		return
	case EventAlarmRaised:
		c.raised[ev.Alarm.Link] = true
	case EventAlarmCleared:
		delete(c.raised, ev.Alarm.Link)
	case EventLinkDown, EventLinkUp:
		if !c.markFailed(ev.Link, ev.Kind == EventLinkDown) {
			return // a duplicate announcement
		}
	}
	demands, stranded := c.liveDemands()
	var r *Reaction
	switch ev.Kind {
	case EventAlarmRaised:
		r = c.plan(ev, demands)
	case EventAlarmCleared:
		r = c.reactToClear(demands)
	case EventLinkDown:
		if len(c.failed) == 1 {
			// First failure of this episode: remember the healthy lie
			// set so heals can restore it.
			c.preFailure = c.lies.InstalledAll()
		}
		r = c.reactToFailure(ev.Link, believed, demands)
	case EventLinkUp:
		r = c.reactToRecovery(demands)
	}
	if r == nil {
		return // nothing planned, committed or failed
	}
	r.At, r.Trigger, r.Link, r.Stranded = c.now(), ev.Kind.String(), ev.Alarm.Name, stranded
	if ev.Kind == EventLinkDown || ev.Kind == EventLinkUp {
		r.Link = c.topo.Name(ev.Link.From) + "-" + c.topo.Name(ev.Link.To)
	}
	if p := r.plan; p != nil {
		if empty, err := c.commit(p); err != nil {
			r.errs = append(r.errs, err)
		} else if !empty {
			r.Strategy, r.Lies = p.Strategy, p.TotalLies()
			c.Decisions = append(c.Decisions, Decision{
				At: r.At, Prefix: strings.Join(p.Prefixes(), ","), Strategy: p.Strategy, Lies: r.Lies, Detail: p.Rationale,
			})
		}
	}
	for _, err := range r.errs {
		c.Errors = append(c.Errors, err)
		r.Errors = append(r.Errors, err.Error())
	}
	c.Reactions = append(c.Reactions, *r)
}

// ensureArtifacts returns the artifact cache for the given planning
// topology. A new topology instance, or a weight change on the bound one,
// rebinds it and drops every memo; a stale mark alone starts a new epoch,
// which drops the epoch tables and keeps the topology ones. The
// cumulative stats and the LP solve counter survive both.
func (c *Controller) ensureArtifacts(pt *topo.Topology) *PlanArtifacts {
	switch {
	case !c.arts.boundTo(pt):
		c.arts = newPlanArtifacts(pt, c.arts.stats, c.arts.solver)
	case c.stale:
		c.arts.newEpoch()
	}
	c.stale = false
	return c.arts
}

// ArtifactStats snapshots the cumulative plan-cache hit/miss counters.
func (c *Controller) ArtifactStats() ArtifactStats { return c.arts.Stats() }

// LPStats snapshots the LP solve counter.
func (c *Controller) LPStats() te.WarmLPStats { return c.arts.LPStats() }

// demandEntry is one aggregate of the demand model. peak is the largest
// rate the entry has reached: the scale reference for deciding it has
// drained to zero. After 100k joins and 100k leaves the residual is
// accumulated float roundoff proportional to the peak (~Gbit/s for
// production crowds), not to any single event's delta. members counts
// sessions: each positive-delta demand event is one viewer joining, each
// negative-delta one leaving. The counts parameterise the QoE predictor
// (a 100-session aggregate stalls very differently from one fat flow of
// the same volume) and are kept in every round, so reports can predict
// QoE.
type demandEntry struct {
	rate, peak float64
	members    int
}

func (c *Controller) applyDemand(ev Event) {
	m := c.demand[ev.Prefix]
	if m == nil {
		if ev.DeltaRate <= 0 {
			return
		}
		m = make(map[topo.NodeID]*demandEntry)
		c.demand[ev.Prefix] = m
	}
	d := m[ev.Ingress]
	if d == nil {
		d = &demandEntry{}
		m[ev.Ingress] = d
	}
	d.rate += ev.DeltaRate
	if d.rate > d.peak {
		d.peak = d.rate
	}
	// Session counting: one event, one viewer. Zero-delta events (rate
	// renegotiations) leave the count alone.
	switch {
	case ev.DeltaRate > 0:
		d.members++
	case ev.DeltaRate < 0 && d.members > 0:
		d.members--
	}
	// Scale-relative zero test against the entry's peak: a full drain
	// leaves add/subtract roundoff proportional to the peak aggregate,
	// far above an absolute cutoff (or the final leave's own delta) once
	// crowds reach Gbit/s. A surviving phantom entry would keep the
	// planner chasing a prefix with no real traffic.
	if d.rate <= 1e-9*math.Max(1, d.peak) {
		delete(m, ev.Ingress)
	}
	clear(c.futile) // changed demands may make a rejected plan viable
	c.stale = true  // cached artifacts were computed for the old demands
}

// Demands snapshots the current demand model.
func (c *Controller) Demands() []topo.Demand {
	var out []topo.Demand
	for _, name := range slices.Sorted(maps.Keys(c.demand)) {
		for _, in := range slices.Sorted(maps.Keys(c.demand[name])) {
			out = append(out, topo.Demand{Ingress: in, PrefixName: name, Volume: c.demand[name][in].rate})
		}
	}
	return out
}

// liveDemands is the one demand filter every reaction plans from: the
// demand model less each entry whose ingress has no plain-IGP route to
// its prefix on the live topology, named ("prefix@ingress") as stranded.
// The model keeps those entries, so a heal brings them back.
func (c *Controller) liveDemands() (live []topo.Demand, stranded []string) {
	demands := c.Demands()
	if len(c.failed) == 0 {
		return demands, nil
	}
	arts := c.ensureArtifacts(c.live)
	for _, d := range demands {
		if views, err := arts.Views(d.PrefixName, nil); err == nil && !routed(views, d.Ingress) {
			stranded = append(stranded, d.PrefixName+"@"+c.topo.Name(d.Ingress))
			continue
		}
		live = append(live, d)
	}
	return live, stranded
}

// routed reports whether router n has a route in a prefix's views (a
// node the views do not cover, such as a host, counts as routed).
func routed(views map[topo.NodeID]fibbing.RouteView, n topo.NodeID) bool {
	v, ok := views[n]
	return !ok || v.Local || len(v.NextHops) > 0
}

// QoEModel snapshots the controller's viewer model: the tracked member
// counts per aggregate with the default playback config (each session
// plays a fixed rate equal to its aggregate's per-session share) over
// the default prediction horizon. The snapshot is deep-copied, so
// callers may hold it across further demand events. A saturated
// planning round predicts stalls with it.
func (c *Controller) QoEModel() qoe.Model {
	members := make(map[string]map[topo.NodeID]int, len(c.demand))
	for prefix, m := range c.demand {
		if len(m) == 0 {
			continue
		}
		mem := make(map[topo.NodeID]int, len(m))
		for in, d := range m {
			mem[in] = d.members
		}
		members[prefix] = mem
	}
	return qoe.Model{Members: members, Horizon: qoe.DefaultHorizon}
}

// plan maps a raised alarm into the live topology and plans on it. An
// alarm on a failed link itself is obsolete: the failover path owns it.
func (c *Controller) plan(ev Event, demands []topo.Demand) *Reaction {
	if len(demands) == 0 {
		return nil
	}
	pt := c.live
	if len(c.failed) > 0 {
		l := c.topo.Link(ev.Alarm.Link)
		nl, ok := pt.FindLink(l.From, l.To)
		if !ok {
			return nil
		}
		ev.Alarm.Link = nl.ID
	}
	return c.planOn(pt, ev, demands)
}

// planOn is the one planning round, for an alarm on one of pt's links:
// it returns the round's record with the winner for Handle to commit. A
// futile-memo hit and a stale alarm (the installed lies already keep the
// prediction at target) record nothing. Strategy errors are soft while
// some plan wins; with no plan they are surfaced.
func (c *Controller) planOn(pt *topo.Topology, ev Event, demands []topo.Demand) *Reaction {
	// Check the memo before building the context: a hit means identical
	// inputs to an earlier no-plan round, so even the base-utilisation
	// evaluation (a full fluid routing) would come out the same.
	if c.futile[ev.Alarm.Link] {
		return nil
	}
	ctx := buildPlanContext(c.ensureArtifacts(pt), pt, demands, c.lies.InstalledAll(), ev)
	if ctx.BaseUtil <= TargetUtil {
		return nil // stale alarm
	}
	if ctx.saturated() {
		ctx = ctx.WithQoE(c.QoEModel())
	}
	plans, errs := c.planner.ProposeAll(ctx)
	best := c.planner.Select(ctx, plans)
	r := roundRecord(ctx, plans, best)
	if best == nil {
		for _, err := range errs {
			r.errs = append(r.errs, fmt.Errorf("controller: %w", err))
		}
		c.futile[ev.Alarm.Link] = true
		return r
	}
	r.plan = best
	return r
}

// planHottest plans on the hottest link of the live topology: the alarm
// path for a trigger that carries no alarm of its own.
func (c *Controller) planHottest(demands []topo.Demand) *Reaction {
	if len(demands) == 0 {
		return nil
	}
	pt := c.live
	loads, err := c.ensureArtifacts(pt).Loads(c.lies.InstalledAll(), demands)
	if err != nil {
		return nil
	}
	alarm, ok := HottestLinkAlarm(pt, loads)
	if !ok {
		return nil
	}
	return c.planOn(pt, AlarmEvent(alarm), demands)
}

// commit applies the plan's per-prefix lie sets in one LieManager.Commit:
// either every prefix reconciles or none does. It reports an empty delta
// (the plan was already installed). Any commit attempt clears the futile
// memo, since it may change the installed lies.
func (c *Controller) commit(plan *Plan) (empty bool, err error) {
	clear(c.futile)
	delta, err := c.lies.Commit(plan.Lies)
	if err != nil {
		return false, fmt.Errorf("controller: commit %s: %w", plan.Strategy, err)
	}
	if delta.Empty() {
		return true, nil
	}
	// The installed lie set changed; cached artifacts were computed over
	// the previous one.
	c.stale = true
	return false, nil
}
