package scenarios

// The frontier check (ROADMAP item 6(a)). Lies are originated at the
// controller's point of presence, the cell's attachment router, and each
// router switches to a new lie set one SPF delay after the flood reaches
// it; every router waits the same delay. So a commit from lie set L to L'
// passes through the prefixes of the flood-arrival order: the routers the
// flood has reached forward under L', the rest under L. The check
// evaluates both sets with fibbing.Evaluate and runs
// fibbing.CheckDelivery on each prefix, at most one per distinct arrival
// instant, for every prefix the commit touches. A commit the IGP's own
// change rides with (a failover pin, its revert) adds the flood of that
// change from the changed links' ends. A failing state is flagged by the
// oracle's twin rule: only where it loops and the lie-free IGP mix at
// that instant does not, or drops where that mix delivers. It only
// reports: the safety oracle's runs carry it, and it changes no decision
// and no golden.

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// frontierCommit is one commit as the frontier check judged it: the
// instant the oracle first saw its lie set, and, per touched prefix whose
// transition fails, the first failing state and its verdict.
type frontierCommit struct {
	at      time.Duration
	flagged map[string]string
}

// watchFrontier arms the frontier check on a watched run: the lies flood
// from the cell's attachment router, and an adjacency change marks the
// links the IGP holds down for a recount at the next check.
func (w *safetyWatch) watchFrontier() {
	p, _ := w.sim.Topo.PrefixByName(w.sim.Runner.Prefix)
	w.attach = p.Attachments[0].Node
	prev := w.sim.Domain.OnAdjacencyChange
	w.sim.Domain.OnAdjacencyChange = func(l topo.Link, up bool) {
		if prev != nil {
			prev(l, up)
		}
		w.adjChanged = true
	}
}

// noteCommit is the frontier check's hook in the oracle: at each check,
// a lie set that differs from the one the last check saw is a commit, and
// the check judges its transition. Two commits between two checks are
// judged as one. It also keeps the links the IGP holds down, so that a
// commit made as the IGP learns of a failure or a heal (a failover pin,
// its revert) is judged with the IGP's own flood of that change.
func (w *safetyWatch) noteCommit() {
	lies, down := w.sim.Lies.InstalledAll(), w.down
	if w.adjChanged {
		down, w.adjChanged = igpDownLinks(w.sim), false
	}
	defer func() { w.lies, w.down = lies, down }()
	var touched []string
	for _, p := range slices.Sorted(maps.Keys(lies)) {
		if !sameLies(lies[p], w.lies[p]) {
			touched = append(touched, p)
		}
	}
	for _, p := range slices.Sorted(maps.Keys(w.lies)) {
		if _, ok := lies[p]; !ok {
			touched = append(touched, p)
		}
	}
	if len(touched) == 0 {
		return
	}
	w.commits = append(w.commits, frontierCommit{
		at:      w.sim.Sched.Now(),
		flagged: w.frontierVerdicts(down, lies, touched),
	})
}

// sameLies reports whether two lie lists hold the same multiset.
func sameLies(a, b []fibbing.Lie) bool {
	if len(a) != len(b) {
		return false
	}
	n := make(map[fibbing.Lie]int, len(a))
	for _, l := range a {
		n[l]++
	}
	for _, l := range b {
		if n[l]--; n[l] < 0 {
			return false
		}
	}
	return true
}

// igpDownLinks lists the links between routers whose adjacency is down at
// their head: the links the IGP's routes avoid.
func igpDownLinks(sim *controller.Sim) []topo.LinkID {
	var down []topo.LinkID
	for _, n := range sim.Topo.Nodes() {
		r := sim.Domain.Router(n.ID)
		if r == nil {
			continue
		}
		up := r.Neighbors()
		for _, lid := range sim.Topo.OutLinks(n.ID) {
			to := sim.Topo.Link(lid).To
			if sim.Domain.Router(to) != nil && !slices.Contains(up, ospf.NodeRouterID(to)) {
				down = append(down, lid)
			}
		}
	}
	slices.Sort(down)
	return down
}

// frontierVerdicts judges the transition from the lies and the IGP's
// down links the last check saw to after and down. The new lies flood
// from the point of presence and the new topology from the changed links'
// ends, both over the new topology; each router takes each change with
// the SPF run that follows its arrival (switchTimes). The states are the
// routers' mix at each distinct switch instant, and each is held to
// CheckDelivery per touched prefix.
func (w *safetyWatch) frontierVerdicts(down []topo.LinkID, after map[string][]fibbing.Lie, touched []string) map[string]string {
	tps := [2]*topo.Topology{without(w.sim.Topo, w.down), without(w.sim.Topo, down)}
	tp := tps[1]
	var ends []topo.NodeID
	for _, lid := range symmetricDiff(w.down, down) {
		l := w.sim.Topo.Link(lid)
		ends = append(ends, l.From, l.To)
	}
	lieAt, topoAt := switchTimes(arrivals(tp, w.attach), arrivals(tp, ends...))
	var instants []time.Duration
	for _, at := range slices.Concat(lieAt, topoAt) {
		if at >= 0 {
			instants = append(instants, at)
		}
	}
	slices.Sort(instants)
	instants = slices.Compact(instants)
	flagged := make(map[string]string)
	for _, p := range touched {
		var views [2][2]map[topo.NodeID]fibbing.RouteView // by topology, lies
		var err error
		for i, live := range tps {
			if i == 1 && len(ends) == 0 {
				views[1] = views[0] // the IGP's topology did not change
				break
			}
			for j, lies := range [2][]fibbing.Lie{w.lies[p], after[p]} {
				if views[i][j], err = evaluateLive(w.sim.Topo, live, p, lies); err != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		if err != nil {
			flagged[p] = "evaluating the lies: " + err.Error()
			continue
		}
		switched := func(arrival, at time.Duration) int {
			if arrival >= 0 && arrival <= at {
				return 1
			}
			return 0
		}
		// twin is the verdict of the lie-free IGP mix at an instant, what
		// the no-controller twin forwards by, as the oracle gives it: a
		// router without a route drops. Its views are evaluated at the
		// first state that fails.
		var igp [2]map[topo.NodeID]fibbing.RouteView
		var igpErr error
		twin := func(at time.Duration) string {
			if igp[0] == nil && igpErr == nil {
				for i, live := range tps {
					if i == 1 && len(ends) == 0 {
						igp[1] = igp[0]
						break
					}
					if igp[i], igpErr = evaluateLive(w.sim.Topo, live, p, nil); igpErr != nil {
						break
					}
				}
			}
			if igpErr != nil {
				return igpErr.Error()
			}
			mixed := make(map[topo.NodeID]fibbing.RouteView, len(igp[0]))
			for u := range topo.NodeID(tp.NumNodes()) {
				v, ok := igp[switched(topoAt[u], at)][u]
				if !tp.Node(u).Host && (!ok || !v.Local && v.Dist == spf.Infinity) {
					return tp.Name(u) + " has no route"
				}
				if ok {
					mixed[u] = v
				}
			}
			if err := fibbing.CheckDelivery(tp, mixed); err != nil {
				return err.Error()
			}
			return ""
		}
		for k, at := range instants {
			mixed := make(map[topo.NodeID]fibbing.RouteView, len(views[0][0]))
			for u := range views[0][0] {
				mixed[u] = views[switched(topoAt[u], at)][switched(lieAt[u], at)][u]
			}
			if err := fibbing.CheckDelivery(tp, mixed); err != nil && worseThanTwin(err.Error(), twin(at)) {
				flagged[p] = fmt.Sprintf("state %d of %d (+%v): %v", k+1, len(instants), at, err)
				break
			}
		}
	}
	return flagged
}

// symmetricDiff returns the links in exactly one of two sorted lists.
func symmetricDiff(a, b []topo.LinkID) []topo.LinkID {
	var out []topo.LinkID
	for _, l := range a {
		if !slices.Contains(b, l) {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if !slices.Contains(a, l) {
			out = append(out, l)
		}
	}
	return out
}

// without returns t without the links down, t itself when none is.
func without(t *topo.Topology, down []topo.LinkID) *topo.Topology {
	if len(down) == 0 {
		return t
	}
	return t.CloneWithoutLinks(down...)
}

// evaluateLive is fibbing.Evaluate as the routers of t compute it on
// live, t without the links the IGP holds down: a lie whose forwarding
// adjacency is down still draws traffic to its attachment router, which
// drops that fake next hop and, left with none, installs no route. The
// evaluation keeps each such adjacency as a link no shortest path takes,
// so the lie stays valid.
func evaluateLive(t, live *topo.Topology, prefix string, lies []fibbing.Lie) (map[topo.NodeID]fibbing.RouteView, error) {
	var dead []fibbing.Lie
	for _, l := range lies {
		if _, ok := live.FindLink(l.Attach, l.Via); !ok {
			if _, ok := t.FindLink(l.Attach, l.Via); ok {
				dead = append(dead, l)
			}
		}
	}
	if len(dead) > 0 {
		live = live.Clone()
		for _, l := range dead {
			if _, ok := live.FindLink(l.Attach, l.Via); !ok {
				live.AddDirectedLink(l.Attach, l.Via, 1<<40, topo.LinkOpts{})
			}
		}
	}
	views, err := fibbing.Evaluate(live, prefix, lies)
	if err != nil {
		return nil, err
	}
	for _, l := range dead {
		v := views[l.Attach]
		delete(v.NextHops, l.Via)
		if len(v.NextHops) == 0 && !v.Local {
			delete(views, l.Attach)
		}
	}
	return views, nil
}

// spfDelay is the IGP's debounce between an LSDB change and the SPF run
// that installs it.
const spfDelay = 10 * time.Millisecond

// switchTimes turns two floods' arrivals at each router into the
// instants its forwarding takes each change: the router's first change
// arms one SPF run spfDelay later, which installs every change that has
// arrived by then, and a change arriving after that run arms another.
// An arrival of -1 (never) stays -1.
func switchTimes(a, b []time.Duration) (sa, sb []time.Duration) {
	sa, sb = slices.Clone(a), slices.Clone(b)
	for u := range a {
		first := a[u]
		if first < 0 || b[u] >= 0 && b[u] < first {
			first = b[u]
		}
		if first < 0 {
			continue
		}
		run := first + spfDelay
		for _, s := range [2][]time.Duration{sa, sb} {
			switch {
			case s[u] < 0:
			case s[u] <= run:
				s[u] = run
			default:
				s[u] += spfDelay
			}
		}
	}
	return sa, sb
}

// arrivals returns, by node, the instant a flood sent from every source
// at once reaches each router of t, -1 for one it never reaches and for
// hosts: each link delays it by its delay, 1 ms when unset, as the IGP
// transport does.
func arrivals(t *topo.Topology, sources ...topo.NodeID) []time.Duration {
	at := make([]time.Duration, t.NumNodes())
	for i := range at {
		at[i] = -1
	}
	for _, s := range sources {
		at[s] = 0
	}
	done := make([]bool, t.NumNodes())
	for {
		u := topo.NoNode
		for v := range topo.NodeID(t.NumNodes()) {
			if !done[v] && at[v] >= 0 && (u == topo.NoNode || at[v] < at[u]) {
				u = v
			}
		}
		if u == topo.NoNode {
			return at
		}
		done[u] = true
		for _, lid := range t.OutLinks(u) {
			l := t.Link(lid)
			if t.Node(l.To).Host {
				continue
			}
			d := l.Delay
			if d <= 0 {
				d = time.Millisecond
			}
			if at[l.To] < 0 || at[u]+d < at[l.To] {
				at[l.To] = at[u] + d
			}
		}
	}
}

// frontierTally is the frontier check's calibration against the oracle
// on one controller arm: the commits it judged and flagged, the oracle's
// unsafe checks it missed, and the flagged commits at which the oracle
// saw nothing unsafe (false alarms).
type frontierTally struct {
	commits, flagged    int
	missed, falseAlarms []string
}

// calibrateFrontier holds the frontier check to the oracle's unsafe
// checks on a controller arm: each must follow a commit the check flagged
// for its prefix, the last commit at or before it.
func calibrateFrontier(on *safetyWatch, unsafe []safetyCheck) frontierTally {
	tally := frontierTally{commits: len(on.commits)}
	explained := make([]bool, len(on.commits))
	for _, c := range unsafe {
		i := lastCommitAt(on.commits, c.At)
		if i < 0 || on.commits[i].flagged[c.Prefix] == "" {
			tally.missed = append(tally.missed, c.String())
			continue
		}
		explained[i] = true
	}
	for i, cm := range on.commits {
		if len(cm.flagged) > 0 {
			tally.flagged++
			if !explained[i] {
				for _, p := range slices.Sorted(maps.Keys(cm.flagged)) {
					tally.falseAlarms = append(tally.falseAlarms, fmt.Sprintf("+%v %s: %s", cm.at, p, cm.flagged[p]))
				}
			}
		}
	}
	return tally
}

// lastCommitAt returns the index of the last commit at or before t, -1
// if none.
func lastCommitAt(commits []frontierCommit, t time.Duration) int {
	i, _ := slices.BinarySearchFunc(commits, t, func(c frontierCommit, t time.Duration) int {
		if c.at <= t {
			return -1
		}
		return 1
	})
	return i - 1
}
