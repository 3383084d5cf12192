package controller

// The planner's amortisation layer. Every strategy of a planning round —
// and every successive planner invocation between state changes — used
// to recompute the same expensive inputs from scratch: the reverse SPF
// trees, the believed-topology compilation (fibbing.Evaluate per prefix
// and lie set), the strategies' compiled and verified lie sets, and the
// fluid load estimates behind PlanContext.Evaluate. PlanArtifacts
// memoises all of them, keyed by value-complete cache keys (topology
// binding by pointer and Topology.Version, lie sets and demand volumes
// encoded into the key), so a stale entry is impossible by construction.
// The tables come in two lifetimes. The topology tables (the evaluator
// and local-ecmp's verified spreads) depend
// on the binding alone and are bounded by the topology's size, so they
// live until the controller plans over another topology instance or the
// bound one's weights change. The epoch tables (views, loads,
// lp-optimal's compiled overlays, QoE predictions) have keys that grow
// with lie sets and demands, so the controller empties them whenever a
// planning input moves (a demand change, a commit that changed the lies,
// a liveness change marks the cache stale), which bounds their memory to
// one planning epoch. A warm re-plan — the same
// question asked again while nothing moved — is then one lookup per
// strategy plus the scoring lookups.
//
// Hit/miss accounting is deterministic because planning is: the Planner
// proposes strategy by strategy in registration order on the control
// loop's goroutine, so one event sequence produces exactly one sequence
// of lookups — the counters are byte-identical across scheduler worker
// widths and core counts and safe to publish in scenario Reports.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// ArtifactStats counts PlanArtifacts cache traffic. Hits and Misses are
// deterministic for a given event sequence (see the package comment on
// the single lookup order), so they appear in scenario Reports unscrubbed.
type ArtifactStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// QoEHits/QoEMisses count the QoE-prediction memo separately from the
	// routing artifacts: the predictor is consulted once per candidate
	// overlay per planning round, so its hit rate measures how much the
	// stall order amortises, independent of the view/load caches.
	QoEHits   uint64 `json:"qoe_hits"`
	QoEMisses uint64 `json:"qoe_misses"`
}

// counters is the hit/miss pair one memo table accounts to: the plan
// counters or the QoE counters of the shared ArtifactStats.
type counters struct{ hits, misses *uint64 }

// result is a memoised (value, error) outcome: errors are cached too, so
// a failing key is not recomputed on every retry.
type result[V any] struct {
	val V
	err error
}

func pair[V any](val V, err error) result[V] { return result[V]{val, err} }

func (r result[V]) get() (V, error) { return r.val, r.err }

// loadsEntry caches one fluid routing of a full lie set: the per-link
// loads and the max utilisation derived from them.
type loadsEntry struct {
	loads map[topo.LinkID]float64
	util  float64
	err   error
}

// lpEntry caches lp-optimal's whole derivation for one demand set: the
// min-max LP optimum, and its splits quantised and compiled (Verify
// included), prefix by prefix, into one overlay. pinned is set when any
// prefix needed pin-all; err is the LP's error, or the first failing
// prefix's, named.
type lpEntry struct {
	opt     *te.MinMaxResult
	overlay map[string][]fibbing.Lie
	pinned  bool
	err     error
}

// spreadKey names one local-ecmp spread: the prefix, the hot router that
// widens, and whether loop-free alternates are recruited.
type spreadKey struct {
	prefix string
	hot    topo.NodeID
	lfa    bool
}

// spreadEntry caches one localSpreadLies outcome; ok is false when no
// spread exists or it fails to compile/verify.
type spreadEntry struct {
	lies []fibbing.Lie
	ok   bool
}

// PlanArtifacts memoises the expensive planner inputs for one topology.
// It is not safe for concurrent use: the planner runs on the scheduler's
// one goroutine, and so does every reader of Stats. Cached values are
// shared — callers must treat returned views and load maps as read-only.
type PlanArtifacts struct {
	// topo and version are the binding: the topology and the
	// Topology.Version the cache was built against.
	topo    *topo.Topology
	version uint64

	// The topology tables: each a function of the binding alone, bounded
	// by the topology's size, so they live as long as the binding. eval
	// is the what-if evaluator every Views, lp and spreads miss goes
	// through: it shares reverse SPF trees across strategies, lie sets
	// and epochs. Its internal tree cache is not a counted lookup.
	// spreads holds one entry per (prefix, router, LFA mode) at most: a
	// spread reads only the plain-IGP views, the topology and eval.
	eval    *fibbing.Evaluator
	spreads map[spreadKey]spreadEntry

	// The epoch tables: their keys grow with lie sets and demands, so
	// newEpoch empties them whenever the controller's planning inputs
	// move.
	views map[string]result[map[topo.NodeID]fibbing.RouteView]
	loads map[string]loadsEntry
	lp    map[string]lpEntry
	qoe   map[string]result[qoe.PlanQoE]

	// solver and stats are shared across cache generations: the counters
	// are cumulative per controller.
	solver *te.MinMaxSolver
	stats  *ArtifactStats
	// planCount and qoeCount point into stats.
	planCount, qoeCount counters
}

// NewPlanArtifacts returns an empty cache bound to t, with fresh stats
// and a fresh LP solve counter.
func NewPlanArtifacts(t *topo.Topology) *PlanArtifacts {
	return newPlanArtifacts(t, &ArtifactStats{}, nil)
}

// newPlanArtifacts returns an empty cache bound to t that accounts to
// stats and solves through solver (nil = a private fresh solver).
func newPlanArtifacts(t *topo.Topology, stats *ArtifactStats, solver *te.MinMaxSolver) *PlanArtifacts {
	if solver == nil {
		solver = te.NewMinMaxSolver()
	}
	a := &PlanArtifacts{
		topo:      t,
		version:   t.Version(),
		eval:      fibbing.NewEvaluator(t),
		spreads:   make(map[spreadKey]spreadEntry),
		solver:    solver,
		stats:     stats,
		planCount: counters{&stats.Hits, &stats.Misses},
		qoeCount:  counters{&stats.QoEHits, &stats.QoEMisses},
	}
	a.newEpoch()
	return a
}

// boundTo reports whether the cache answers for t as it is now: the same
// topology, not mutated since the cache was built.
func (a *PlanArtifacts) boundTo(t *topo.Topology) bool {
	return a.topo == t && a.version == t.Version()
}

// newEpoch empties the epoch tables and keeps the topology tables.
func (a *PlanArtifacts) newEpoch() {
	a.views = make(map[string]result[map[topo.NodeID]fibbing.RouteView])
	a.loads = make(map[string]loadsEntry)
	a.lp = make(map[string]lpEntry)
	a.qoe = make(map[string]result[qoe.PlanQoE])
}

// memo is the one lookup every table goes through: a found key counts a
// hit; otherwise compute runs, its value is stored and counts a miss.
// compute may make nested lookups through memo (a load estimate reads
// Views) but never of its own key.
func memo[K comparable, V any](table map[K]V, key K, c counters, compute func() V) V {
	if v, ok := table[key]; ok {
		*c.hits++
		return v
	}
	v := compute()
	*c.misses++
	table[key] = v
	return v
}

// Stats snapshots the cumulative hit/miss counters.
func (a *PlanArtifacts) Stats() ArtifactStats { return *a.stats }

// LPStats snapshots the LP solve counter.
func (a *PlanArtifacts) LPStats() te.WarmLPStats { return a.solver.Stats() }

// Views returns the memoised believed-topology compilation for one
// prefix under the given lie set (nil lies = the plain IGP view). A miss
// is a scan over the shared evaluator's reverse trees, plus one Dijkstra
// per attach router it has not seen yet.
func (a *PlanArtifacts) Views(prefix string, lies []fibbing.Lie) (map[topo.NodeID]fibbing.RouteView, error) {
	var sb strings.Builder
	sb.WriteString(prefix)
	encodeLies(&sb, lies)
	return memo(a.views, sb.String(), a.planCount, func() result[map[topo.NodeID]fibbing.RouteView] {
		return pair(a.eval.Evaluate(prefix, lies))
	}).get()
}

// demandViews returns the believed views of every demanded prefix under
// the full lie set, each through Views — so two lie sets differing in one
// prefix share the other prefixes' compilations.
func (a *PlanArtifacts) demandViews(lies map[string][]fibbing.Lie, demands []topo.Demand) (map[string]map[topo.NodeID]fibbing.RouteView, error) {
	views := make(map[string]map[topo.NodeID]fibbing.RouteView)
	for _, d := range demands {
		if _, ok := views[d.PrefixName]; ok {
			continue
		}
		v, err := a.Views(d.PrefixName, lies[d.PrefixName])
		if err != nil {
			return nil, err
		}
		views[d.PrefixName] = v
	}
	return views, nil
}

// MaxUtil routes demands over the full lie set (all prefixes, merged)
// with the fluid model and returns the max link utilisation, memoised on
// the (lies, demands) value.
func (a *PlanArtifacts) MaxUtil(lies map[string][]fibbing.Lie, demands []topo.Demand) (float64, error) {
	e := a.loadsFor(lies, demands)
	return e.util, e.err
}

// Loads is MaxUtil's sibling returning the per-link load map itself
// (read-only; shared with the cache).
func (a *PlanArtifacts) Loads(lies map[string][]fibbing.Lie, demands []topo.Demand) (map[topo.LinkID]float64, error) {
	e := a.loadsFor(lies, demands)
	return e.loads, e.err
}

func (a *PlanArtifacts) loadsFor(lies map[string][]fibbing.Lie, demands []topo.Demand) loadsEntry {
	return memo(a.loads, loadsKey(lies, demands), a.planCount, func() loadsEntry {
		views, err := a.demandViews(lies, demands)
		if err != nil {
			return loadsEntry{err: err}
		}
		loads, err := te.LinkLoads(a.topo, views, demands)
		if err != nil {
			return loadsEntry{err: err}
		}
		return loadsEntry{loads: loads, util: te.MaxUtilOfLoads(a.topo, loads)}
	})
}

// lpOptimal returns lp-optimal's derivation for the demand set (see
// lpEntry), memoised on the demands' value: a miss solves the min-max LP,
// then quantises and compiles every demanded prefix's splits in sorted
// order against the shared evaluator (a pinned compile costs at most one
// Dijkstra per router in total, however many removals ReduceLies
// tries). The returned overlay is shared — callers must copy the map
// before handing it on and treat the lie lists as read-only.
func (a *PlanArtifacts) lpOptimal(demands []topo.Demand) lpEntry {
	var sb strings.Builder
	encodeDemands(&sb, demands)
	return memo(a.lp, sb.String(), a.planCount, func() lpEntry {
		opt, err := a.solver.Solve(a.topo, demands)
		if err != nil {
			return lpEntry{err: err}
		}
		e := lpEntry{opt: opt, overlay: make(map[string][]fibbing.Lie)}
		for _, prefix := range prefixNamesOf(demands) {
			dag, err := fibbing.Requirement(a.topo, prefix, opt.Splits[prefix])
			if err != nil {
				return lpEntry{err: fmt.Errorf("%s: %w", prefix, err)}
			}
			aug, pinned, err := a.eval.Compile(prefix, dag)
			if err != nil {
				return lpEntry{err: fmt.Errorf("%s: %w", prefix, err)}
			}
			e.pinned = e.pinned || pinned
			e.overlay[prefix] = aug.Lies
		}
		return e
	})
}

// spread returns local-ecmp's verified spread for one prefix at the hot
// router (see localSpreadLies), memoised for the binding's life. The
// returned lies are shared — callers must treat them as read-only.
func (a *PlanArtifacts) spread(prefix string, hot topo.NodeID, lfa bool) ([]fibbing.Lie, bool) {
	e := memo(a.spreads, spreadKey{prefix, hot, lfa}, a.planCount, func() spreadEntry {
		lies, ok := localSpreadLies(a, prefix, hot, lfa)
		return spreadEntry{lies, ok}
	})
	return e.lies, e.ok
}

// predictQoEKeyed maps the full lie set and demand set to the analytic
// plan-level QoE prediction (qoe.PredictPlan over the memoised per-prefix
// views), memoised on the (lies, demands, model) value under the QoE
// counters. modelKey is encodeModel's output for model: the planner
// consults the predictor once per candidate overlay under an unchanging
// model, so WithQoE encodes it once per planning context instead of once
// per lookup.
func (a *PlanArtifacts) predictQoEKeyed(modelKey string, lies map[string][]fibbing.Lie, demands []topo.Demand, model qoe.Model) (qoe.PlanQoE, error) {
	key := loadsKey(lies, demands) + "!" + modelKey
	return memo(a.qoe, key, a.qoeCount, func() result[qoe.PlanQoE] {
		views, err := a.demandViews(lies, demands)
		if err != nil {
			return result[qoe.PlanQoE]{err: err}
		}
		return pair(qoe.PredictPlan(a.topo, views, demands, model))
	}).get()
}

// encodeModel appends a value-complete encoding of a qoe.Model: member
// counts in sorted (prefix, ingress) order, then the playback config and
// horizon (exact float bits for the ladder).
func encodeModel(sb *strings.Builder, m qoe.Model) {
	prefixes := make([]string, 0, len(m.Members))
	for name := range m.Members {
		prefixes = append(prefixes, name)
	}
	slices.Sort(prefixes)
	for _, name := range prefixes {
		sb.WriteByte('&')
		sb.WriteString(name)
		nodes := make([]topo.NodeID, 0, len(m.Members[name]))
		for n := range m.Members[name] {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		for _, n := range nodes {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatInt(int64(n), 10))
			sb.WriteByte('=')
			sb.WriteString(strconv.Itoa(m.Members[name][n]))
		}
	}
	sb.WriteByte('/')
	for _, r := range m.Session.Ladder {
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(r, 'x', -1, 64))
	}
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatInt(int64(m.Session.SegmentDuration), 10))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatFloat(m.Session.SafetyFactor, 'x', -1, 64))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatFloat(m.Session.StartupBuffer, 'x', -1, 64))
	sb.WriteByte('/')
	sb.WriteString(strconv.FormatInt(int64(m.Horizon), 10))
}

// encodeLies appends a value-complete encoding of one prefix's lie list.
// Lie lists are built deterministically by the compilers, so the order
// is stable and kept significant (a reordered but equal set would only
// cost a duplicate cache entry, never a wrong hit). The prefix goes in
// as raw address bytes plus mask length: Prefix.String showed up as the
// single hottest piece of the planner's warm path (keys are encoded on
// every memo hit).
func encodeLies(sb *strings.Builder, lies []fibbing.Lie) {
	for _, l := range lies {
		sb.WriteByte('|')
		addr := l.Prefix.Addr().As16()
		sb.Write(addr[:])
		sb.WriteByte(byte(l.Prefix.Bits()))
		sb.WriteByte('@')
		sb.WriteString(strconv.FormatInt(int64(l.Attach), 10))
		sb.WriteByte('>')
		sb.WriteString(strconv.FormatInt(int64(l.Via), 10))
		sb.WriteByte('$')
		sb.WriteString(strconv.FormatInt(l.Cost, 10))
	}
}

// encodeDemands appends a value-complete encoding of a demand set
// (exact float bits for the volumes).
func encodeDemands(sb *strings.Builder, demands []topo.Demand) {
	for _, d := range demands {
		sb.WriteByte(';')
		sb.WriteString(d.PrefixName)
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatInt(int64(d.Ingress), 10))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(d.Volume, 'x', -1, 64))
	}
}

// loadsKey encodes (full lie set, demand set): prefixes in sorted order
// for a canonical map encoding.
func loadsKey(lies map[string][]fibbing.Lie, demands []topo.Demand) string {
	names := make([]string, 0, len(lies))
	for name, ls := range lies {
		if len(ls) > 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteByte('#')
		sb.WriteString(name)
		encodeLies(&sb, lies[name])
	}
	sb.WriteByte('~')
	encodeDemands(&sb, demands)
	return sb.String()
}
