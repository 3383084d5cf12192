// Package spf implements shortest-path-first computation (Dijkstra) with
// full equal-cost multi-path (ECMP) support, as run by every router of a
// link-state IGP.
//
// The central result type is Tree: distances from a source plus the ECMP
// predecessor DAG, from which callers derive next-hop sets, enumerate all
// equal-cost paths, and count path multiplicities — the quantity Fibbing
// manipulates to realise uneven splitting ratios.
//
// A run's working memory is a Scratch that whoever runs SPF owns: an IGP
// domain keeps one for all its routers, a what-if evaluator one for its
// reverse trees. Compute, Incremental and Tree.NextHops work in a fresh
// one, for callers that run SPF once. On an owned Scratch a full run
// (Scratch.Compute) allocates a fixed number of objects whatever the node
// count: the tree, Dist, the predecessor list headers and one predecessor
// array every list is cut from. FromTopology likewise cuts a graph's edge
// lists from one array. Both cap each list at its length, so a later
// append to one list reallocates that list alone.
//
// Incremental (incremental.go) patches a Tree from a list of GraphChanges
// instead of re-running Dijkstra, falling back to a full recompute when
// the dirty region exceeds MaxDirtyFraction of the graph. It is the first
// stage of the delta pipeline: IGP change → patched tree → FIB diff →
// selective flow re-routing. A caller that patches one tree after another
// keeps two: the current tree and the one it replaced.
// Scratch.IncrementalInto writes the next patch into the replaced tree's
// arrays, so a steady-state patch allocates only the predecessor lists it
// rewrites.
package spf

import (
	"fmt"
	"math"
	"strings"

	"fibbing.net/fibbing/internal/topo"
)

// Scratch is the working memory of SPF runs: the visited set, expanded
// list and predecessor counts (Compute), the per-node flag vector and
// closure queue (IncrementalInto), the binary-heap backing array, and the
// DAG-walk state of AppendNextHops. Whoever runs SPF owns one and hands
// every run to it, so its vectors grow to the largest graph it has seen
// and then stop allocating. The zero value is ready to use; a Scratch
// serves one run at a time. Results (Dist, preds) never alias it.
type Scratch struct {
	done  []bool
	flags []uint8
	queue []topo.NodeID
	h     heap
	// npred counts Compute's predecessor edges per node; all zero
	// between uses (buildPreds resets what it counted), so sizing it
	// needs no clearing: fresh memory is zero too.
	npred []int32

	// AppendNextHops state. seen and cnt are all-zero between uses: a
	// walk resets exactly the entries it touched (the nodes in order), so
	// a query costs its ancestor closure, not the graph.
	seen  []bool
	cnt   []int64
	order []topo.NodeID
	stack []dagFrame
}

// dagFrame is one level of AppendNextHops' iterative depth-first walk: a
// node and the index of its next unvisited predecessor edge.
type dagFrame struct {
	node topo.NodeID
	next int
}

// boolSlice returns the visited vector sized to n nodes, all false.
func (s *Scratch) boolSlice(n int) []bool {
	s.done = fit(s.done, n)
	clear(s.done)
	return s.done
}

// flagSlice returns the flag vector sized to n nodes, all zero.
func (s *Scratch) flagSlice(n int) []uint8 {
	s.flags = fit(s.flags, n)
	clear(s.flags)
	return s.flags
}

// Infinity is the distance reported for unreachable nodes.
const Infinity int64 = math.MaxInt64

// Edge is one directed adjacency of the SPF graph.
type Edge struct {
	To     topo.NodeID
	Weight int64
	// Link is the topology link realising the edge, or topo.NoLink for
	// synthetic edges (fake links injected by Fibbing).
	Link topo.LinkID
}

// Graph is a compact adjacency-list view tailored for SPF. It is decoupled
// from topo.Topology so that the IGP can run SPF over LSDB-derived graphs
// that include fake nodes.
type Graph struct {
	Out [][]Edge
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{Out: make([][]Edge, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Out) }

// AddEdge appends a directed edge.
func (g *Graph) AddEdge(from topo.NodeID, e Edge) {
	g.Out[from] = append(g.Out[from], e)
}

// AddNode appends an isolated node and returns its ID. Used to graft fake
// nodes onto a copy of the real graph.
func (g *Graph) AddNode() topo.NodeID {
	g.Out = append(g.Out, nil)
	return topo.NodeID(len(g.Out) - 1)
}

// Reverse returns the transpose graph: one edge v -> u (same weight and
// link) for every edge u -> v. A shortest-path tree over it rooted at d
// holds every node's distance *to* d, and the tree's predecessors of u are
// u's first hops towards d — the destination-rooted view that answers
// "how does everyone reach d" with one Dijkstra instead of one per source.
func (g *Graph) Reverse() *Graph {
	n := g.NumNodes()
	indeg := make([]int, n)
	total := 0
	for _, es := range g.Out {
		for _, e := range es {
			indeg[e.To]++
		}
		total += len(es)
	}
	r := NewGraph(n)
	backing := make([]Edge, total)
	for v, d := range indeg {
		r.Out[v], backing = backing[:0:d], backing[d:]
	}
	for u, es := range g.Out {
		for _, e := range es {
			r.Out[e.To] = append(r.Out[e.To], Edge{To: topo.NodeID(u), Weight: e.Weight, Link: e.Link})
		}
	}
	return r
}

// Clone returns a deep copy. The edge lists are cut from one backing
// array, each capped at its length, so an append to one list of the clone
// reallocates that list alone: the clone's other lists and g stay as they
// were.
func (g *Graph) Clone() *Graph {
	total := 0
	for _, es := range g.Out {
		total += len(es)
	}
	c := NewGraph(g.NumNodes())
	backing := make([]Edge, total)
	for i, es := range g.Out {
		if len(es) > 0 {
			n := copy(backing, es)
			c.Out[i], backing = backing[:n:n], backing[n:]
		}
	}
	return c
}

// ReplaceEdges replaces the multiset of directed edges from -> to with the
// given ones (each edge's To field is forced to to). It reports whether the
// edge set actually differed, so incremental graph maintainers can build
// GraphChange lists for Incremental without tracking weights themselves.
// The kept edges stay in order, followed by the new ones; nothing is
// allocated unless the adjacency list has to grow.
func (g *Graph) ReplaceEdges(from, to topo.NodeID, edges []Edge) bool {
	out := g.Out[from]
	nOld := 0
	for _, e := range out {
		if e.To == to {
			nOld++
		}
	}
	// Multiset comparison on (Weight, Link), in place: with as many old
	// edges as new, the sets are equal iff every new edge occurs as often
	// among the old ones as among the new. Edge lists here are tiny
	// (parallel links between one node pair).
	changed := nOld != len(edges)
	for i := 0; i < len(edges) && !changed; i++ {
		w, l := edges[i].Weight, edges[i].Link
		inNew, inOld := 0, 0
		for _, e := range edges {
			if e.Weight == w && e.Link == l {
				inNew++
			}
		}
		for _, e := range out {
			if e.To == to && e.Weight == w && e.Link == l {
				inOld++
			}
		}
		changed = inNew != inOld
	}
	kept := out[:0]
	for _, e := range out {
		if e.To != to {
			kept = append(kept, e)
		}
	}
	for _, e := range edges {
		e.To = to
		kept = append(kept, e)
	}
	g.Out[from] = kept
	return changed
}

// FromTopology builds the SPF graph of the router-level topology. Host
// nodes are present (so IDs align) but contribute no transit: edges from
// hosts exist, edges into hosts exist, yet hosts are excluded as transit by
// routers simply because shortest paths never improve through a stub of
// equal cost — to be strict we keep host edges only between the host and
// its attachment, which cannot create transit shortcuts.
//
// Each node's edges come in link ID order. The lists are cut from one
// backing array sized by the out-degrees, each capped at its length, so
// the graph costs three allocations and a later AddEdge or ReplaceEdges
// that grows one list reallocates that list alone.
func FromTopology(t *topo.Topology) *Graph {
	g := NewGraph(t.NumNodes())
	backing := make([]Edge, t.NumLinks())
	for u := range g.Out {
		d := len(t.OutLinks(topo.NodeID(u)))
		g.Out[u], backing = backing[:0:d], backing[d:]
	}
	for id := range t.NumLinks() {
		l := t.Link(topo.LinkID(id))
		g.Out[l.From] = append(g.Out[l.From], Edge{To: l.To, Weight: l.Weight, Link: l.ID})
	}
	return g
}

// Tree is the result of one SPF run: distances from Src and the ECMP
// predecessor DAG over shortest paths.
type Tree struct {
	Src  topo.NodeID
	Dist []int64
	// preds[v] lists, for every node v on some shortest path, the edges
	// (u -> v) that lie on a shortest path from Src.
	preds [][]pred
	// kids caches the CSR inversion of preds (children of every node in
	// the shortest-path DAG), built lazily by childrenCSR. Incremental
	// stores it on the trees it returns so the next patch of the same
	// tree gets the old-DAG closure for free.
	kids   dagChildren
	kidsOK bool
	// touched backs the touched list IncrementalInto returns with this
	// tree, so a reused tree brings that storage along too.
	touched []topo.NodeID
}

type pred struct {
	from topo.NodeID
	link topo.LinkID
}

// item is a binary-heap entry.
type item struct {
	node topo.NodeID
	dist int64
}

// heap is a minimal binary min-heap on (dist, node). A hand-rolled heap
// avoids the interface boxing of container/heap on this hot path.
type heap struct {
	a []item
}

func (h *heap) push(it item) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].dist <= h.a[i].dist {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *heap) pop() item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l].dist < h.a[small].dist {
			small = l
		}
		if r < last && h.a[r].dist < h.a[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

func (h *heap) empty() bool { return len(h.a) == 0 }

// Compute runs Dijkstra from src and records the full ECMP predecessor DAG.
// Nodes listed in skip are not expanded (used to exclude stub hosts from
// transit); they may still be reached as leaves. It works in a fresh
// Scratch; a caller that runs SPF more than once owns one and calls its
// Compute.
func Compute(g *Graph, src topo.NodeID, skip func(topo.NodeID) bool) *Tree {
	return new(Scratch).Compute(g, src, skip)
}

// Compute is the package's Compute working in s. Dijkstra settles the
// distances alone; the DAG is read off the final ones afterwards
// (buildPreds), so a run allocates the tree, Dist, the list headers and
// one predecessor array, whatever the node count.
func (s *Scratch) Compute(g *Graph, src topo.NodeID, skip func(topo.NodeID) bool) *Tree {
	n := g.NumNodes()
	t := &Tree{
		Src:   src,
		Dist:  make([]int64, n),
		preds: make([][]pred, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Infinity
	}
	t.Dist[src] = 0
	done := s.boolSlice(n)
	expanded := fit(s.queue, n)[:0]
	h := &s.h
	h.a = fit(h.a, n)[:0]
	h.push(item{node: src, dist: 0})
	for !h.empty() {
		it := h.pop()
		u := it.node
		if done[u] || it.dist > t.Dist[u] {
			continue
		}
		done[u] = true
		if u != src && skip != nil && skip(u) {
			continue // reached, but never expanded as transit
		}
		expanded = append(expanded, u)
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			alt := du + e.Weight
			if alt >= 0 && alt < t.Dist[e.To] { // alt < 0: overflow guard
				t.Dist[e.To] = alt
				h.push(item{node: e.To, dist: alt})
			}
		}
	}
	s.queue, s.npred = expanded, fit(s.npred, n)
	t.buildPreds(g, expanded, s.npred)
	t.canonicalize()
	return t
}

// buildPreds fills t.preds from the final distances: every edge out of an
// expanded node that lies on a shortest path (Dist[u] + w == Dist[v], with
// Compute's overflow guard), zero-weight edges and edges into nodes
// settled before u included. With non-negative weights an expanded node's
// distance is final, so these are exactly the edges a relaxation would
// have kept. The edges are counted first (into cnt, all zero on entry and
// on return), so every list is cut from one backing array, capped at its
// length: an append to one list reallocates that list alone.
func (t *Tree) buildPreds(g *Graph, expanded []topo.NodeID, cnt []int32) {
	total := 0
	for _, u := range expanded {
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			if alt := du + e.Weight; alt >= 0 && alt == t.Dist[e.To] {
				cnt[e.To]++
				total++
			}
		}
	}
	backing := make([]pred, total)
	for v, c := range cnt {
		if c > 0 {
			t.preds[v], backing = backing[:0:c], backing[c:]
			cnt[v] = 0
		}
	}
	for _, u := range expanded {
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			if alt := du + e.Weight; alt >= 0 && alt == t.Dist[e.To] {
				t.preds[e.To] = append(t.preds[e.To], pred{from: u, link: e.Link})
			}
		}
	}
}

// canonicalize sorts every predecessor list by (from, link) so that trees
// produced by different strategies (full Dijkstra vs Incremental) compare
// equal entry for entry.
func (t *Tree) canonicalize() {
	for _, ps := range t.preds {
		sortPreds(ps)
	}
}

func sortPreds(ps []pred) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && predLess(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func predLess(a, b pred) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	return a.link < b.link
}

// Equal reports whether two trees encode identical routing state: same
// source, same distances, and identical canonicalised predecessor sets.
// Trees over graphs of different sizes are never equal.
func (t *Tree) Equal(o *Tree) bool {
	if o == nil || t.Src != o.Src || len(t.Dist) != len(o.Dist) || len(t.preds) != len(o.preds) {
		return false
	}
	for i := range t.Dist {
		if t.Dist[i] != o.Dist[i] {
			return false
		}
	}
	for v := range t.preds {
		a, b := t.preds[v], o.preds[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// AppendParents appends to buf the distinct predecessor nodes of v in the
// shortest-path DAG, ascending (parallel links collapse to one entry), and
// returns the extended slice. Over a Reverse graph these are v's first
// hops towards the root.
func (t *Tree) AppendParents(buf []topo.NodeID, v topo.NodeID) []topo.NodeID {
	last := topo.NoNode
	for _, p := range t.preds[v] { // canonical order: equal froms are adjacent
		if p.from != last {
			buf = append(buf, p.from)
			last = p.from
		}
	}
	return buf
}

// NumPreds returns the number of predecessor edges in the DAG, an upper
// bound on the distinct parents AppendParents lists over all nodes.
func (t *Tree) NumPreds() int {
	n := 0
	for _, ps := range t.preds {
		n += len(ps)
	}
	return n
}

// Reachable reports whether dst was reached.
func (t *Tree) Reachable(dst topo.NodeID) bool {
	return t.Dist[dst] != Infinity
}

// NextHop is one first hop of an equal-cost path set, with the number of
// distinct shortest paths that start with it. Multiplicity is what turns
// duplicated fake nodes into uneven ECMP ratios.
type NextHop struct {
	Node topo.NodeID
	Link topo.LinkID
	// Paths counts the distinct shortest src->dst paths whose first hop
	// is this next hop.
	Paths int64
}

// NextHops returns the ECMP next hops from Src towards dst, including the
// per-next-hop shortest-path multiplicity. The result is sorted by node ID
// for determinism. Returns nil if dst is unreachable or dst == Src. It
// walks in a fresh Scratch; a caller that asks more than once owns one and
// calls its AppendNextHops.
func (t *Tree) NextHops(dst topo.NodeID) []NextHop {
	return new(Scratch).AppendNextHops(nil, t, dst)
}

// AppendNextHops appends t.NextHops(dst) to buf and returns the extended
// slice, walking in s, so a caller that only reads the next hops can reuse
// one buffer.
func (s *Scratch) AppendNextHops(buf []NextHop, t *Tree, dst topo.NodeID) []NextHop {
	if dst == t.Src || !t.Reachable(dst) {
		return buf
	}
	// A shortest path Src -> h -> ... -> dst is one of the parallel edges
	// Src -> h followed by one of the DAG paths h -> dst, so h's
	// multiplicity is (#edges Src -> h) x (#paths h -> dst). Count the
	// latter for every ancestor of dst in one backward sweep: depth-first
	// post-order over the predecessor edges lists ancestors first, so its
	// reverse hands each node its final count before passing it upstream.
	n := len(t.preds)
	s.seen, s.cnt = fit(s.seen, n), fit(s.cnt, n)
	seen, cnt := s.seen, s.cnt
	order, stack := fit(s.order, n)[:0], fit(s.stack, n)[:0]
	seen[dst] = true
	stack = append(stack, dagFrame{node: dst})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if ps := t.preds[f.node]; f.next < len(ps) {
			u := ps[f.next].from
			f.next++
			if u != t.Src && !seen[u] {
				seen[u] = true
				stack = append(stack, dagFrame{node: u})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	out, base := buf, len(buf)
	cnt[dst] = 1
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		nh, first := NextHop{Node: v}, false
		for _, p := range t.preds[v] {
			if p.from == t.Src {
				// Canonical pred order makes the highest parallel link
				// the one reported.
				nh.Link, first = p.link, true
				nh.Paths += cnt[v]
				continue
			}
			cnt[p.from] += cnt[v]
		}
		if first {
			out = append(out, nh)
		}
	}
	for _, v := range order {
		seen[v], cnt[v] = false, 0
	}
	s.order, s.stack = order, stack
	sortNextHops(out[base:])
	return out
}

func sortNextHops(nhs []NextHop) {
	for i := 1; i < len(nhs); i++ {
		for j := i; j > 0 && nhs[j].Node < nhs[j-1].Node; j-- {
			nhs[j], nhs[j-1] = nhs[j-1], nhs[j]
		}
	}
}

// Paths enumerates all equal-cost shortest paths from Src to dst as node
// sequences (Src first). At most limit paths are returned (0 = no limit).
// Paths are produced in a deterministic order.
func (t *Tree) Paths(dst topo.NodeID, limit int) [][]topo.NodeID {
	if !t.Reachable(dst) || dst == t.Src {
		return nil
	}
	var out [][]topo.NodeID
	var rev []topo.NodeID
	var walk func(v topo.NodeID) bool
	walk = func(v topo.NodeID) bool {
		rev = append(rev, v)
		defer func() { rev = rev[:len(rev)-1] }()
		if v == t.Src {
			path := make([]topo.NodeID, len(rev))
			for i, n := range rev {
				path[len(rev)-1-i] = n
			}
			out = append(out, path)
			return limit == 0 || len(out) < limit
		}
		for _, p := range t.preds[v] { // canonical order: ascending from
			if !walk(p.from) {
				return false
			}
		}
		return true
	}
	walk(dst)
	return out
}

// FormatPath renders a node path using topology names, e.g. "A>B>R2>C".
func FormatPath(t *topo.Topology, path []topo.NodeID) string {
	var b strings.Builder
	for i, n := range path {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(t.Name(n))
	}
	return b.String()
}

// HostSkip returns the canonical skip function for graphs derived from t:
// host nodes never transit. Graph indices >= t.NumNodes() (synthetic nodes
// appended to a topology-derived graph, e.g. Fibbing's fake nodes) are
// never skipped.
func HostSkip(t *topo.Topology) func(topo.NodeID) bool {
	return func(n topo.NodeID) bool {
		return int(n) < t.NumNodes() && t.Node(n).Host
	}
}

// ComputeRouters runs Compute from src over a graph derived from t
// (possibly extended with synthetic nodes) with the canonical host-skip
// rule. It is the shared entry point of every caller that builds ad-hoc
// graphs over a topology: TE heuristics, CSPF, the controller's what-if
// evaluation.
func ComputeRouters(g *Graph, t *topo.Topology, src topo.NodeID) *Tree {
	return Compute(g, src, HostSkip(t))
}

// Validate sanity-checks a tree against its graph: every predecessor edge
// must satisfy the shortest-path equality dist[u] + w == dist[v].
func Validate(g *Graph, t *Tree) error {
	for v, ps := range t.preds {
		for _, p := range ps {
			var w int64 = -1
			for _, e := range g.Out[p.from] {
				if e.To == topo.NodeID(v) && e.Link == p.link {
					w = e.Weight
					break
				}
			}
			if w < 0 {
				return fmt.Errorf("spf: pred edge %d->%d not in graph", p.from, v)
			}
			if t.Dist[p.from] == Infinity || t.Dist[p.from]+w != t.Dist[v] {
				return fmt.Errorf("spf: pred edge %d->%d violates optimality (%d + %d != %d)",
					p.from, v, t.Dist[p.from], w, t.Dist[v])
			}
		}
	}
	return nil
}
