package fibbing

import (
	"fmt"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// Evaluator answers what-if questions — "which routes would every router
// install for this prefix under these lies?" — about one topology
// snapshot. It keeps one reverse shortest-path tree per destination it
// has been asked about (prefix attachments and lie attach routers), built
// on first use, so a question costs a table scan instead of a Dijkstra
// per router; see the package comment for why that is exact.
//
// An Evaluator is valid until its topology is mutated (SetWeight): it
// never notices a change, so build a new one afterwards. It is not safe
// for concurrent use: like the rest of the planner it runs on the
// scheduler's one goroutine. The views IGPView returns are shared with
// the evaluator and read-only; Evaluate returns maps the caller owns.
type Evaluator struct {
	t *topo.Topology

	// Snapshot state, built by init on the first question that needs it;
	// rev is nil until then.
	routers []topo.NodeID // non-host nodes, ascending
	host    []bool        // by node
	rev     *spf.Graph    // transpose of the topology's SPF graph
	skip    func(topo.NodeID) bool
	// trees[d] is the reverse tree rooted at d, nil until asked for.
	trees []*revTree
	// sc is the working memory of the reverse trees' SPF runs, made by
	// init with rev: an evaluator that is never asked costs no scratch.
	sc *spf.Scratch

	prefixes map[string]*prefixState
}

// revTree is one destination's reverse shortest-path tree in scan form.
type revTree struct {
	// dist[u] is u's distance to the root, spf.Infinity if it has no
	// host-free path there.
	dist []int64
	// hops[off[u]:off[u+1]] are u's distinct first hops towards the root.
	off  []int32
	hops []topo.NodeID
}

func (tr *revTree) firstHops(u topo.NodeID) []topo.NodeID {
	return tr.hops[tr.off[u]:tr.off[u+1]]
}

// prefixState is what the evaluator remembers about one prefix.
type prefixState struct {
	p topo.Prefix
	// att lists the announcing nodes once each; a node attached twice
	// announces at its last listed cost, as on the routers.
	att   []topo.Attachment
	local []bool // by node: announces the prefix itself

	igp map[topo.NodeID]RouteView // plain-IGP routes, nil until asked for
}

// NewEvaluator binds an evaluator to t as it is now. Nothing is computed
// until the first question.
func NewEvaluator(t *topo.Topology) *Evaluator {
	return &Evaluator{t: t, prefixes: make(map[string]*prefixState)}
}

func (e *Evaluator) init() {
	if e.rev != nil {
		return
	}
	nodes := e.t.Nodes()
	e.host = make([]bool, len(nodes))
	for _, n := range nodes {
		e.host[n.ID] = n.Host
		if !n.Host {
			e.routers = append(e.routers, n.ID)
		}
	}
	e.rev = spf.FromTopology(e.t).Reverse()
	e.skip = spf.HostSkip(e.t)
	e.trees = make([]*revTree, len(nodes))
	e.sc = new(spf.Scratch)
}

// tree returns the reverse tree rooted at d. Running Compute over the
// transpose graph with the usual host-skip rule admits exactly the paths
// the routers' forward computations admit: the root is expanded even when
// it is a host (a destination may be one), every intermediate node must
// be a router, and a host is reached only as a leaf (a source).
func (e *Evaluator) tree(d topo.NodeID) *revTree {
	if tr := e.trees[d]; tr != nil {
		return tr
	}
	full := e.sc.Compute(e.rev, d, e.skip)
	n := len(full.Dist)
	// Sized once: the predecessor edges bound the distinct parents.
	tr := &revTree{dist: full.Dist, off: make([]int32, n+1), hops: make([]topo.NodeID, 0, full.NumPreds())}
	for u := 0; u < n; u++ {
		tr.hops = full.AppendParents(tr.hops, topo.NodeID(u))
		tr.off[u+1] = int32(len(tr.hops))
	}
	e.trees[d] = tr
	return tr
}

// DistTo returns u's IGP distance to d, spf.Infinity when u has no path
// there through routers. It reads d's reverse tree, which a forward SPF
// from u would only repeat: the host-skip rule admits the same paths in
// both directions.
func (e *Evaluator) DistTo(u, d topo.NodeID) int64 {
	e.init()
	return e.tree(d).dist[u]
}

func (e *Evaluator) prefix(name string) (*prefixState, error) {
	if ps, ok := e.prefixes[name]; ok {
		return ps, nil
	}
	p, ok := e.t.PrefixByName(name)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", name)
	}
	ps := &prefixState{p: p, local: make([]bool, e.t.NumNodes())}
	for _, a := range p.Attachments {
		if !ps.local[a.Node] {
			ps.local[a.Node] = true
			ps.att = append(ps.att, a)
			continue
		}
		for j := range ps.att {
			if ps.att[j].Node == a.Node {
				ps.att[j].Cost = a.Cost
			}
		}
	}
	e.prefixes[name] = ps
	return ps, nil
}

// checked resolves a prefix and rejects lies the routers could not act
// on; what it lets through is fit for evaluate.
func (e *Evaluator) checked(prefixName string, lies []Lie) (*prefixState, error) {
	ps, err := e.prefix(prefixName)
	if err != nil {
		return nil, err
	}
	for _, l := range lies {
		if l.Prefix != ps.p.Prefix {
			return nil, fmt.Errorf("fibbing: lie %v targets a different prefix than %v", l, ps.p.Prefix)
		}
		if _, ok := e.t.FindLink(l.Attach, l.Via); !ok {
			return nil, fmt.Errorf("fibbing: lie %v forwards via a non-neighbor", l)
		}
		if l.Cost < 0 {
			return nil, fmt.Errorf("fibbing: lie %v has negative cost", l)
		}
	}
	return ps, nil
}

// Evaluate computes, for every router, the route it would install for the
// named prefix given a set of lies. It mirrors the route computation of
// internal/ospf exactly (same announcement and next-hop-weight semantics)
// but runs on the topology directly, without protocol machinery — this is
// what the controller uses to predict the effect of an augmentation before
// injecting it.
func (e *Evaluator) Evaluate(prefixName string, lies []Lie) (map[topo.NodeID]RouteView, error) {
	ps, err := e.checked(prefixName, lies)
	if err != nil {
		return nil, err
	}
	return e.evaluate(ps, lies), nil
}

// IGPView returns the plain-IGP routes for a prefix (no lies), computed
// once per evaluator. The result is shared: read-only.
func (e *Evaluator) IGPView(prefixName string) (map[topo.NodeID]RouteView, error) {
	ps, err := e.prefix(prefixName)
	if err != nil {
		return nil, err
	}
	return e.igpView(ps), nil
}

func (e *Evaluator) igpView(ps *prefixState) map[topo.NodeID]RouteView {
	if ps.igp == nil {
		ps.igp = e.evaluate(ps, nil)
	}
	return ps.igp
}

// target is one announcement of the prefix as the scan sees it: reach
// tree's root, then pay cost. lie indexes the lie list, -1 for a real
// attachment.
type target struct {
	tree *revTree
	cost int64
	lie  int
}

// via returns u's distance to the prefix through the announcement.
func (tg *target) via(u topo.NodeID) int64 {
	d := tg.tree.dist[u]
	if d == spf.Infinity {
		return spf.Infinity
	}
	if d += tg.cost; d < 0 { // overflow: as unreachable as in Dijkstra
		return spf.Infinity
	}
	return d
}

// evaluate is Evaluate past validation: lies must be ones checked passes.
func (e *Evaluator) evaluate(ps *prefixState, lies []Lie) map[topo.NodeID]RouteView {
	e.init()
	targets := e.targets(ps, lies, nil)
	out := make(map[topo.NodeID]RouteView, len(e.routers))
	for _, u := range e.routers {
		out[u] = route(ps, lies, targets, u)
	}
	return out
}

// targets lists the announcements a scan weighs under the lies — the
// prefix's real attachments, then every lie a router can reach — reusing
// buf's storage. The evaluator must be initialised.
func (e *Evaluator) targets(ps *prefixState, lies []Lie, buf []target) []target {
	if n := len(ps.att) + len(lies); cap(buf) < n {
		buf = make([]target, 0, n)
	}
	buf = buf[:0]
	for _, a := range ps.att {
		buf = append(buf, target{tree: e.tree(a.Node), cost: a.Cost, lie: -1})
	}
	for i, l := range lies {
		if e.host[l.Attach] {
			continue // a host never transits, so no router reaches its fake
		}
		buf = append(buf, target{tree: e.tree(l.Attach), cost: l.Cost, lie: i})
	}
	return buf
}

// route derives router u's view from the announcements targets built for
// lies.
func route(ps *prefixState, lies []Lie, targets []target, u topo.NodeID) RouteView {
	if ps.local[u] {
		return RouteView{Local: true, NextHops: NextHopWeights{}}
	}
	best := spf.Infinity
	for i := range targets {
		if d := targets[i].via(u); d < best {
			best = d
		}
	}
	view := RouteView{Dist: best, NextHops: NextHopWeights{}}
	if best == spf.Infinity {
		return view
	}
	// Transit first: the deduplicated first hops towards every tied
	// announcement, one RIB path each.
	own := false
	for i := range targets {
		tg := &targets[i]
		if tg.via(u) != best {
			continue
		}
		if tg.lie >= 0 && lies[tg.lie].Attach == u {
			own = true
			continue
		}
		for _, nh := range tg.tree.firstHops(u) {
			view.NextHops[nh] = 1
		}
	}
	// Own fakes on top: one extra RIB path each to its forwarding
	// address (additive — the Fibbing trick).
	if own {
		for i := range targets {
			tg := &targets[i]
			if tg.lie >= 0 && lies[tg.lie].Attach == u && tg.via(u) == best {
				view.NextHops[lies[tg.lie].Via]++
			}
		}
	}
	return view
}
