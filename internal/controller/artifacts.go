package controller

// The planner's amortisation layer. Every strategy of a planning round —
// and every successive planner invocation between state changes — used
// to recompute the same expensive inputs from scratch: per-source SPF
// trees, Yen k-shortest-path sets, the believed-topology compilation
// (fibbing.Evaluate per prefix and lie set), and the fluid load estimates
// behind PlanContext.Evaluate. PlanArtifacts memoises all of them, keyed
// by value-complete cache keys (topology binding by pointer and
// Topology.Version, lie sets and demand volumes encoded into the key), so
// a stale entry is impossible by construction. The tables come in two
// lifetimes. The topology tables (the evaluator, the SPF graph, the SPF
// trees and the Yen path sets) depend on the binding alone and are
// bounded by the topology's size, so they live until the controller plans
// over another topology instance or the bound one's weights change. The
// epoch tables (views, loads, LP optima, compiled DAGs, QoE predictions)
// have keys that grow with lie sets, DAGs and demands, so the controller
// empties them whenever its generation triple (topology gen, demand gen,
// lie gen) moves, which bounds their memory to one planning epoch.
//
// Hit/miss accounting is deterministic because planning is: the Planner
// proposes strategy by strategy in registration order on the control
// loop's goroutine, so one event sequence produces exactly one sequence
// of lookups — the counters are byte-identical across scheduler worker
// widths and core counts and safe to publish in scenario Reports.

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/spf"
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
	// QoE scoring path amortises, independent of the SPF/load caches.
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

// graphEntry is the bound topology's SPF graph and host-skip.
type graphEntry struct {
	g    *spf.Graph
	skip func(topo.NodeID) bool
}

type kspKey struct {
	src, dst topo.NodeID
	k        int
}

// loadsEntry caches one fluid routing of a full lie set: the per-link
// loads and the max utilisation derived from them.
type loadsEntry struct {
	loads map[topo.LinkID]float64
	util  float64
	err   error
}

// augEntry caches one compileDAG outcome: the verified augmentation (or
// the compile/verify error) for a requirement DAG on one prefix.
type augEntry struct {
	aug    *fibbing.Augmentation
	pinned bool
	err    error
}

// PlanArtifacts memoises the expensive planner inputs for one topology.
// The planner itself uses it from one goroutine; the mutex keeps it safe
// to share and to snapshot (Stats) from another. Cached values are
// shared — callers must treat returned trees, paths, views and load maps
// as read-only.
type PlanArtifacts struct {
	mu sync.Mutex
	// topo and version are the binding: the topology and the
	// Topology.Version the cache was built against.
	topo    *topo.Topology
	version uint64

	// The topology tables: each a function of the binding alone, bounded
	// by the topology's size, so they live as long as the binding. eval
	// is the what-if evaluator every Views and CompileDAG miss goes
	// through: it shares reverse SPF trees across strategies, lie sets
	// and epochs. Its internal tree cache is not a counted lookup.
	eval  *fibbing.Evaluator
	graph map[struct{}]graphEntry // at most one entry: a table, so memo serves it
	trees map[topo.NodeID]*spf.Tree
	ksp   map[kspKey][][]topo.NodeID

	// The epoch tables: their keys grow with lie sets, DAGs and demands,
	// so newEpoch empties them whenever the controller's planning inputs
	// move.
	views map[string]result[map[topo.NodeID]fibbing.RouteView]
	loads map[string]loadsEntry
	mmx   map[string]result[*te.MinMaxResult]
	augs  map[string]augEntry
	qoe   map[string]result[qoe.PlanQoE]

	// lp and stats are shared across cache generations (stats also with
	// the ephemeral failover artifacts): the counters are cumulative per
	// controller.
	lp    *te.MinMaxSolver
	stats *ArtifactStats
	// planCount and qoeCount point into stats.
	planCount, qoeCount counters
}

// NewPlanArtifacts returns an empty cache bound to t, with fresh stats
// and a fresh LP solve counter.
func NewPlanArtifacts(t *topo.Topology) *PlanArtifacts {
	return newPlanArtifacts(t, &ArtifactStats{}, nil)
}

// newPlanArtifacts returns an empty cache bound to t that accounts to
// stats and solves through lp (nil = a private fresh solver).
func newPlanArtifacts(t *topo.Topology, stats *ArtifactStats, lp *te.MinMaxSolver) *PlanArtifacts {
	if lp == nil {
		lp = te.NewMinMaxSolver()
	}
	a := &PlanArtifacts{
		topo:      t,
		version:   t.Version(),
		eval:      fibbing.NewEvaluator(t),
		graph:     make(map[struct{}]graphEntry),
		trees:     make(map[topo.NodeID]*spf.Tree),
		ksp:       make(map[kspKey][][]topo.NodeID),
		lp:        lp,
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
	a.mu.Lock()
	defer a.mu.Unlock()
	a.views = make(map[string]result[map[topo.NodeID]fibbing.RouteView])
	a.loads = make(map[string]loadsEntry)
	a.mmx = make(map[string]result[*te.MinMaxResult])
	a.augs = make(map[string]augEntry)
	a.qoe = make(map[string]result[qoe.PlanQoE])
}

// memo is the one lookup every table goes through. A found key counts a
// hit; a computed value counts a miss when it is stored. compute runs
// with the lock released because it makes nested lookups through this
// same function (Tree reads Graph, a load estimate reads Views) and the
// mutex is not reentrant; if a caller on another goroutine stored the
// key meanwhile, its value wins and the late result is dropped.
func memo[K comparable, V any](a *PlanArtifacts, table map[K]V, key K, c counters, compute func() V) V {
	a.mu.Lock()
	if v, ok := table[key]; ok {
		*c.hits++
		a.mu.Unlock()
		return v
	}
	a.mu.Unlock()
	v := compute()
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := table[key]; ok {
		*c.hits++
		return prev
	}
	*c.misses++
	table[key] = v
	return v
}

// Stats snapshots the cumulative hit/miss counters.
func (a *PlanArtifacts) Stats() ArtifactStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return *a.stats
}

// LPStats snapshots the LP solve counter.
func (a *PlanArtifacts) LPStats() te.WarmLPStats { return a.lp.Stats() }

// Graph returns the memoised spf.Graph and host-skip for the bound
// topology.
func (a *PlanArtifacts) Graph() (*spf.Graph, func(topo.NodeID) bool) {
	e := memo(a, a.graph, struct{}{}, a.planCount, func() graphEntry {
		return graphEntry{spf.FromTopology(a.topo), spf.HostSkip(a.topo)}
	})
	return e.g, e.skip
}

// Tree returns the memoised SPF tree rooted at src.
func (a *PlanArtifacts) Tree(src topo.NodeID) *spf.Tree {
	return memo(a, a.trees, src, a.planCount, func() *spf.Tree {
		g, skip := a.Graph()
		return spf.Compute(g, src, skip)
	})
}

// spurScan bounds Yen's spur scan to the first nodes of each parent
// path: deviations near the hot router are the exploitable ones, and the
// bound keeps the per-alarm search cheap on large sparse topologies.
const spurScan = 8

// kspPaths is how many loopless paths the ksp strategy considers.
const kspPaths = 4

// KShortest returns the memoised Yen k-shortest-path set.
func (a *PlanArtifacts) KShortest(src, dst topo.NodeID, k int) [][]topo.NodeID {
	return memo(a, a.ksp, kspKey{src, dst, k}, a.planCount, func() [][]topo.NodeID {
		g, skip := a.Graph()
		return spf.KShortestSpurLimit(g, src, dst, k, spurScan, skip)
	})
}

// Views returns the memoised believed-topology compilation for one
// prefix under the given lie set (nil lies = the plain IGP view). A miss
// is a scan over the shared evaluator's reverse trees, plus one Dijkstra
// per attach router it has not seen yet.
func (a *PlanArtifacts) Views(prefix string, lies []fibbing.Lie) (map[topo.NodeID]fibbing.RouteView, error) {
	var sb strings.Builder
	sb.WriteString(prefix)
	encodeLies(&sb, lies)
	return memo(a, a.views, sb.String(), a.planCount, func() result[map[topo.NodeID]fibbing.RouteView] {
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
	return memo(a, a.loads, loadsKey(lies, demands), a.planCount, func() loadsEntry {
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

// SolveMinMax returns the memoised min-max LP optimum for the demand
// set. A repeated demand set within one cache generation is a pure
// lookup; a changed one is solved afresh and counted.
func (a *PlanArtifacts) SolveMinMax(demands []topo.Demand) (*te.MinMaxResult, error) {
	var sb strings.Builder
	encodeDemands(&sb, demands)
	return memo(a, a.mmx, sb.String(), a.planCount, func() result[*te.MinMaxResult] {
		return pair(a.lp.Solve(a.topo, demands))
	}).get()
}

// CompileDAG returns the memoised compileDAG outcome for a requirement
// DAG on one prefix: the add-paths-then-pin-all compilation plus the
// Verify sweep, all against the shared evaluator (a pinned compile costs
// at most one Dijkstra per router in total, however many removals
// ReduceLies tries). The KSP strategy's greedy path accumulation retries
// the same candidate DAGs on every invocation, making this the planner's
// second-largest repeated cost after the view compilations. The returned
// augmentation is shared — callers must treat it as read-only.
func (a *PlanArtifacts) CompileDAG(prefix string, dag fibbing.DAG) (*fibbing.Augmentation, bool, error) {
	var sb strings.Builder
	sb.WriteString(prefix)
	encodeDAG(&sb, dag)
	e := memo(a, a.augs, sb.String(), a.planCount, func() augEntry {
		aug, pinned, err := compileDAG(a.eval, prefix, dag)
		return augEntry{aug, pinned, err}
	})
	return e.aug, e.pinned, e.err
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
	return memo(a, a.qoe, key, a.qoeCount, func() result[qoe.PlanQoE] {
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

// encodeDAG appends a canonical encoding of a requirement DAG: routers in
// id order, each with its next-hop weights in id order. Weights are kept
// un-normalised — {B:1,R1:2} and {B:2,R1:4} would compile to the same
// lies, but a duplicate entry is cheaper than normalising here.
func encodeDAG(sb *strings.Builder, dag fibbing.DAG) {
	routers := make([]topo.NodeID, 0, len(dag))
	for u := range dag {
		routers = append(routers, u)
	}
	slices.Sort(routers)
	for _, u := range routers {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatInt(int64(u), 10))
		sb.WriteByte('=')
		nhs := make([]topo.NodeID, 0, len(dag[u]))
		for v := range dag[u] {
			nhs = append(nhs, v)
		}
		slices.Sort(nhs)
		for _, v := range nhs {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatInt(int64(v), 10))
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(dag[u][v]))
		}
	}
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
