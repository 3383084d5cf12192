package controller

// The controller's fixed reactions: lifecycle rules that choose nothing,
// so they run beside the Planner rather than as strategies in it.
//
//   - Withdrawal (reactToClear): once the last alarm clears and plain IGP
//     routing stays at or below DefaultWithdrawBelow, every lie goes and
//     the network is back to pure IGP, as Fibbing prescribes.
//   - Fast failover (reactToFailure): when the liveness layer
//     (internal/bfd feeding EventLinkDown) declares a link dead —
//     milliseconds after the failure, long before the IGP dead interval —
//     the controller pins the post-failure IGP paths with lies compiled
//     against the topology the routers still believe in (pre-failure),
//     TI-LFA style, so traffic leaves the dead link immediately instead
//     of blackholing until the IGP converges. A failure that partitions
//     the network strands the demand it cuts off, which every reaction
//     leaves out (Controller.liveDemands) until a heal reconnects it.
//   - Revert (reactToRecovery): when the last failed link heals, the
//     pre-failure lie set comes back if it evaluates better than the
//     detour, or as well with fewer lies.

import (
	"fmt"
	"maps"
	"slices"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// canonicalLink names a symmetric link pair by its lower-numbered half,
// so both directions of a failure share one key in the failed set.
func canonicalLink(l topo.Link) topo.LinkID {
	if l.Reverse != topo.NoLink && l.Reverse < l.ID {
		return l.Reverse
	}
	return l.ID
}

// markFailed records the liveness layer's view of a link and reports
// whether it changed. Duplicates are expected — both endpoints detect a
// symmetric failure, and BFD and the IGP dead interval announce the
// same event at different timescales — and must not re-trigger the
// reaction. On a change the live topology is rebuilt, the futile memo
// cleared and the artifact cache marked stale: the planning universe
// moved.
func (c *Controller) markFailed(l topo.Link, down bool) bool {
	id := canonicalLink(l)
	if c.failed[id] == down {
		return false
	}
	if down {
		c.failed[id] = true
	} else {
		delete(c.failed, id)
	}
	c.live = c.topo
	if len(c.failed) > 0 {
		c.live = c.topo.CloneWithoutLinks(slices.Sorted(maps.Keys(c.failed))...)
	}
	clear(c.futile)
	c.stale = true
	return true
}

// reactToClear is the withdrawal rule, run on every alarm clear: with
// no alarm left raised, lies installed, and plain IGP routing of the
// live demands over the live topology at or below DefaultWithdrawBelow,
// every installed lie is withdrawn. Otherwise the lies stay: an alarm
// is still up, or IGP alone would congest again.
func (c *Controller) reactToClear(demands []topo.Demand) *Reaction {
	installed := c.lies.InstalledAll()
	if len(c.raised) > 0 || len(installed) == 0 {
		return nil
	}
	util, err := c.ensureArtifacts(c.live).MaxUtil(nil, demands)
	if err != nil {
		return &Reaction{errs: []error{fmt.Errorf("controller: withdraw: %w", err)}}
	}
	if util > DefaultWithdrawBelow {
		return nil
	}
	overlay := make(map[string][]fibbing.Lie, len(installed))
	for prefix := range installed {
		overlay[prefix] = nil
	}
	return &Reaction{plan: &Plan{
		Strategy:      "withdraw",
		Lies:          overlay,
		PredictedUtil: util,
		Rationale:     "surge over; network back to pure IGP",
	}}
}

// reactToFailure answers a liveness-detected link failure with the
// failover pin, or with the hottest-link round when nothing can be pinned.
// The pin evaluates over the live topology (where traffic will
// physically flow) and compiles against believed, the live topology
// before this failure: what the routers route on until the IGP dead
// interval expires, so traffic leaves the dead link the moment the plan
// commits instead of blackholing through the convergence window.
func (c *Controller) reactToFailure(link topo.Link, believed *topo.Topology, demands []topo.Demand) *Reaction {
	plan, err := failoverPin(c.ensureArtifacts(c.live), believed, link, c.lies.InstalledAll(), demands)
	switch {
	case err != nil:
		return &Reaction{errs: []error{fmt.Errorf("controller: failover %s-%s: %w",
			c.topo.Name(link.From), c.topo.Name(link.To), err)}}
	case plan != nil:
		return &Reaction{plan: plan}
	}
	return c.planHottest(demands)
}

// reactToRecovery reassesses routing the moment a failed link returns.
// Failover plans committed while it was down pinned traffic onto the
// reduced topology; waiting for the next SNMP alarm would leave that
// detour saturating the restored network for seconds. When the last
// failure heals, the pre-failure lie set is restored if it evaluates
// better than the detour, or as well with fewer live lies (the
// make-before-break revert of traditional TE); otherwise the alarm path
// the monitor would eventually take runs immediately on the hottest
// link, and a clean recovery, already at target, commits nothing.
func (c *Controller) reactToRecovery(demands []topo.Demand) *Reaction {
	snap := c.preFailure
	if len(c.failed) == 0 {
		c.preFailure = nil
	}
	if len(demands) == 0 {
		return nil
	}
	if len(c.failed) == 0 && snap != nil {
		if plan := c.revertPlan(snap, c.lies.InstalledAll(), demands); plan != nil {
			return &Reaction{plan: plan}
		}
	}
	return c.planHottest(demands)
}

// revertPlan builds the plan restoring the pre-failure lie set, if doing
// so strictly improves the analytic utilisation under current demands,
// or leaves fewer live lies at equal utilisation (within utilEps): a
// pin that no longer lowers the max utilisation buys nothing once the
// IGP routes around the healed link again. Both are evaluated through
// the healed live topology's artifact cache (the alarm path after it
// reads the same loads). Prefixes that gained lies during the failure
// episode get explicit empty entries so the commit withdraws them.
func (c *Controller) revertPlan(snap, installed map[string][]fibbing.Lie, demands []topo.Demand) *Plan {
	overlay := maps.Clone(snap)
	for prefix := range installed {
		if _, ok := overlay[prefix]; !ok {
			overlay[prefix] = nil
		}
	}
	arts := c.ensureArtifacts(c.live)
	cur, err := arts.MaxUtil(installed, demands)
	if err != nil {
		return nil
	}
	old, err := arts.MaxUtil(overlay, demands)
	if err != nil {
		return nil
	}
	plan := &Plan{
		Strategy:      "failover-revert",
		Lies:          overlay,
		PredictedUtil: old,
		Rationale:     fmt.Sprintf("restored pre-failure plan after heal (%.2f -> %.2f)", cur, old),
	}
	plan.LieCost = liveLiesAfter(installed, plan)
	// The no-op plan keeps every installed lie.
	fewer := plan.LieCost < liveLiesAfter(installed, &Plan{})
	if old < cur || fewer && old <= cur+utilEps(old, cur) {
		return plan
	}
	return nil
}

// failoverPin pins the post-failure IGP paths: for each demanded prefix
// it reads the IGP's routing on the live topology (arts' binding,
// without the failed link), widens the split at the failed link's
// endpoints — the routers inheriting the rerouted traffic — with their
// unused downhill neighbours, and compiles the resulting DAG into lies
// against believed, the topology the routers still route on. The result
// steers traffic off the dead link immediately and keeps steering it
// after the IGP converges. Every other installed lie attached at a
// router with no route to its prefix on the live topology is withdrawn:
// no router can reach it. It returns no plan when some prefix cannot be
// pinned; the hottest-link planning round owns that case.
func failoverPin(arts *PlanArtifacts, believed *topo.Topology, failed topo.Link,
	installed map[string][]fibbing.Lie, demands []topo.Demand) (*Plan, error) {
	// One evaluator for what the routers still believe: every prefix's
	// compile shares its trees.
	ev := fibbing.NewEvaluator(believed)
	overlay := make(map[string][]fibbing.Lie)
	for _, prefix := range prefixNamesOf(demands) {
		views, err := arts.Views(prefix, nil)
		if err != nil {
			return nil, nil
		}
		lies, ok := failoverPinLies(ev, arts.topo, views, prefix, failed)
		if !ok {
			return nil, nil
		}
		overlay[prefix] = lies
	}
	for prefix, lies := range installed {
		if _, pinned := overlay[prefix]; pinned {
			continue
		}
		views, err := arts.Views(prefix, nil)
		kept := slices.DeleteFunc(slices.Clone(lies), func(l fibbing.Lie) bool {
			return err == nil && !routed(views, l.Attach)
		})
		if len(kept) < len(lies) {
			overlay[prefix] = kept
		}
	}
	if len(overlay) == 0 {
		return nil, nil
	}
	util, err := arts.MaxUtil(mergeOverlay(installed, overlay), demands)
	if err != nil {
		return nil, fmt.Errorf("failover-pin: %w", err)
	}
	plan := &Plan{
		Strategy:      "failover-pin",
		Lies:          overlay,
		PredictedUtil: util,
		Rationale: fmt.Sprintf("pinned post-failure paths around %s-%s",
			believed.Name(failed.From), believed.Name(failed.To)),
	}
	plan.LieCost = liveLiesAfter(installed, plan)
	return plan, nil
}

// failoverPinLies builds and compiles one prefix's pin DAG: the reduced
// topology's IGP next hops for every transit router (views, fetched
// memoised by the caller), widened at the failed link's endpoints,
// compiled and verified against the believed topology ev is bound to.
func failoverPinLies(ev *fibbing.Evaluator, reduced *topo.Topology, views map[topo.NodeID]fibbing.RouteView, prefix string, failed topo.Link) ([]fibbing.Lie, bool) {
	dag := fibbing.DAG{}
	for n, v := range views {
		if v.Local || len(v.NextHops) == 0 || reduced.Node(n).Host {
			continue
		}
		dag[n] = maps.Clone(v.NextHops)
	}
	if len(dag) == 0 {
		return nil, false
	}
	// Widen at the failure's endpoints: recruit every unused downhill
	// neighbour (local-ecmp's downstream criterion) so the rerouted
	// aggregate does not all land on one backup path.
	for _, end := range [2]topo.NodeID{failed.From, failed.To} {
		v, ok := views[end]
		nhs := dag[end]
		if !ok || v.Local || nhs == nil {
			continue
		}
		for _, lid := range reduced.OutLinks(end) {
			u := reduced.Link(lid).To
			if reduced.Node(u).Host || nhs[u] > 0 {
				continue
			}
			uv, ok := views[u]
			if !ok {
				continue
			}
			if uv.Local || (len(uv.NextHops) > 0 && uv.Dist < v.Dist) {
				nhs[u] = 1
			}
		}
	}
	aug, _, err := ev.Compile(prefix, dag)
	if err != nil {
		return nil, false
	}
	return aug.Lies, true
}
