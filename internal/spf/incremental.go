package spf

import "fibbing.net/fibbing/internal/topo"

// This file implements incremental shortest-path recomputation: given a
// Tree computed on an earlier version of a Graph and the set of adjacencies
// that changed since, Incremental patches the tree instead of re-running
// Dijkstra from scratch. The dirty region — nodes whose distance or
// predecessor set may differ — is derived from the changed edges:
//
//   - an edge that lay on a shortest path and got worse (removed, weight
//     raised) invalidates its head and, transitively, every old-DAG
//     descendant of it (their distances were routed through it);
//   - an edge that got better (added, weight lowered) invalidates its head
//     only — improvements re-propagate through the ordinary Dijkstra
//     relaxation, which also catches new equal-cost predecessors.
//
// Dirty nodes are reset to Infinity and re-settled by a Dijkstra run that
// is seeded from the intact boundary (every edge from an intact node into
// the dirty region). When the dirty region exceeds MaxDirtyFraction of the
// graph the bookkeeping no longer pays for itself and Incremental falls
// back to a full Compute.

// GraphChange names one directed adjacency (From -> To) whose edge set —
// presence, weight, or multiplicity — differs between the graph a previous
// Tree was computed on and the current graph. Graph.ReplaceEdges reports
// whether a change entry is needed.
type GraphChange struct {
	From, To topo.NodeID
}

// MaxDirtyFraction is Incremental's fallback threshold: when more than
// this fraction of the graph's nodes is dirty, one full Dijkstra is
// cheaper than invalidation bookkeeping plus a near-full re-settle.
const MaxDirtyFraction = 0.5

// Incremental returns the shortest-path tree of g from prev.Src, reusing
// prev (computed on an earlier version of g, with at most as many nodes)
// wherever the changed adjacencies cannot have altered it. It returns the
// new tree, the IDs of nodes whose distance, predecessor set, or derived
// next hops may differ from prev (sorted, conservative: the set is closed
// over shortest-path-DAG descendants, since NextHops depends on every
// predecessor set along the DAG), and whether it fell back to a full
// recompute (in which case touched is nil and callers must assume every
// node changed). prev is never mutated; untouched predecessor lists are
// shared between prev and the result.
//
// The produced tree is identical — Equal in the strict sense — to what
// Compute(g, prev.Src, skip) returns, provided prev itself was produced by
// Compute or Incremental on the earlier graph with the same skip function,
// and changes covers every adjacency that differs between the two graphs.
// It works in a fresh Scratch; a caller that patches trees repeatedly owns
// one and calls its IncrementalInto.
func Incremental(g *Graph, prev *Tree, changes []GraphChange, skip func(topo.NodeID) bool) (t *Tree, touched []topo.NodeID, full bool) {
	return new(Scratch).IncrementalInto(nil, g, prev, changes, skip)
}

// IncrementalInto is Incremental working in s and writing the patched
// tree into dst's storage — its distance and predecessor arrays, its children CSR and the
// backing of the touched list — instead of fresh memory; a nil dst
// allocates. dst must not be prev, and is consumed whenever the result is
// neither prev (nothing was dirty) nor a full recompute's fresh tree. Its
// predecessor lists are never written, so they may still be shared with
// prev: the natural dst is the tree prev replaced. The touched slice lives
// in the result's storage and stays valid until the result is itself
// passed as dst. Arrays that must grow get headroom, because a graph whose
// nodes come and go keeps growing by a few nodes between compactions.
func (s *Scratch) IncrementalInto(dst *Tree, g *Graph, prev *Tree, changes []GraphChange, skip func(topo.NodeID) bool) (t *Tree, touched []topo.NodeID, full bool) {
	if prev == nil {
		panic("spf: Incremental without a previous tree")
	}
	if dst == prev {
		panic("spf: IncrementalInto into its own previous tree")
	}
	src := prev.Src
	n := g.NumNodes()
	pn := len(prev.Dist)
	if pn > n {
		// The graph shrank under us; index mappings are gone.
		return s.Compute(g, src, skip), nil, true
	}

	// flags packs the per-node state of the whole pass into one
	// allocation: the dirty region, copy-on-write ownership of pred
	// lists, the touched set, and Dijkstra settlement.
	const (
		fDirty uint8 = 1 << iota
		fOwned
		fTouched
		fDone
		fSeen
	)
	flags := s.flagSlice(n)
	nDirty := 0
	mark := func(v topo.NodeID) {
		if v != src && flags[v]&fDirty == 0 {
			flags[v] |= fDirty
			nDirty++
		}
	}
	// Nodes appended since prev start unknown.
	for v := pn; v < n; v++ {
		mark(topo.NodeID(v))
	}
	// queue collects the worse seeds, then runs their closure.
	queue := fit(s.queue, n)[:0]
	for _, c := range changes {
		u, v := c.From, c.To
		if int(u) >= n || int(v) >= n || v == src {
			continue
		}
		if int(v) >= pn {
			continue // new node, already dirty
		}
		usedBefore := false
		for _, p := range prev.preds[v] {
			if p.from == u {
				usedBefore = true
				break
			}
		}
		if usedBefore {
			// The changed edge carried shortest paths: v and its old-DAG
			// descendants must be re-settled.
			mark(v)
			if flags[v]&fSeen == 0 {
				flags[v] |= fSeen
				queue = append(queue, v)
			}
			continue
		}
		// The edge was off the shortest paths. Only an improvement (or a
		// new equal-cost tie) can matter, and only through the edge's
		// current incarnations.
		if int(u) >= pn || prev.Dist[u] == Infinity {
			continue // u is new or was unreachable: handled via u's own dirtiness
		}
		if skip != nil && u != src && skip(u) {
			continue // u never transits
		}
		du := prev.Dist[u]
		for _, e := range g.Out[u] {
			if e.To == v && du+e.Weight >= 0 && du+e.Weight <= prev.Dist[v] {
				mark(v)
				break
			}
		}
	}
	if len(queue) > 0 {
		// Transitive closure of the worse seeds over the old predecessor
		// DAG (children = nodes listing the seed as a predecessor). The
		// CSR is cached on prev, so chained patches pay for it once.
		children := prev.childrenCSR()
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			mark(u)
			for _, w := range children.of(u) {
				if flags[w]&fSeen == 0 {
					flags[w] |= fSeen
					queue = append(queue, w)
				}
			}
		}
	}

	s.queue = queue
	if nDirty == 0 {
		return prev, nil, false
	}
	if float64(nDirty) > MaxDirtyFraction*float64(n) {
		return s.Compute(g, src, skip), nil, true
	}

	if dst == nil {
		dst = new(Tree)
	}
	t = dst
	t.Src = src
	t.Dist = fit(t.Dist, n)
	t.preds = fit(t.preds, n)
	t.kidsOK = false
	copy(t.Dist, prev.Dist)
	copy(t.preds, prev.preds)
	// fOwned marks predecessor lists this tree may mutate; everything
	// else is shared with prev and must be copied before writing. Every
	// node appended since prev is dirty, so no entry of dst survives past
	// pn.
	for v := range flags {
		if flags[v]&fDirty != 0 {
			t.Dist[v] = Infinity
			t.preds[v] = nil
			flags[v] |= fOwned | fTouched
		}
	}

	h := &s.h
	h.a = fit(h.a, n)[:0]
	relax := func(u topo.NodeID, du int64, e Edge) {
		alt := du + e.Weight
		if alt < 0 { // overflow guard
			return
		}
		v := e.To
		switch {
		case alt < t.Dist[v]:
			t.Dist[v] = alt
			if flags[v]&fOwned != 0 {
				t.preds[v] = t.preds[v][:0]
			} else {
				t.preds[v] = nil
				flags[v] |= fOwned
			}
			t.preds[v] = append(t.preds[v], pred{from: u, link: e.Link})
			flags[v] |= fTouched
			h.push(item{node: v, dist: alt})
		case alt == t.Dist[v] && alt != Infinity:
			p := pred{from: u, link: e.Link}
			for _, q := range t.preds[v] {
				if q == p {
					return // already recorded (re-relaxation of an intact edge)
				}
			}
			if flags[v]&fOwned == 0 {
				t.preds[v] = append(append([]pred(nil), t.preds[v]...), p)
				flags[v] |= fOwned
			} else {
				t.preds[v] = append(t.preds[v], p)
			}
			flags[v] |= fTouched
		}
	}

	// Seed the frontier: every edge from an intact, reachable, transiting
	// node into the dirty region is a candidate path.
	for u := 0; u < n; u++ {
		un := topo.NodeID(u)
		if flags[u]&fDirty != 0 || t.Dist[u] == Infinity {
			continue
		}
		if skip != nil && un != src && skip(un) {
			continue
		}
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			if flags[e.To]&fDirty != 0 {
				relax(un, du, e)
			}
		}
	}
	// Standard Dijkstra over the seeded frontier. Improvements may escape
	// the dirty region (a shortcut through re-settled nodes); the loop
	// follows them wherever they cascade.
	for !h.empty() {
		it := h.pop()
		u := it.node
		if flags[u]&fDone != 0 || it.dist > t.Dist[u] {
			continue
		}
		flags[u] |= fDone
		if u != src && skip != nil && skip(u) {
			continue
		}
		du := t.Dist[u]
		for _, e := range g.Out[u] {
			relax(u, du, e)
		}
	}

	for v := 0; v < n; v++ {
		if flags[v]&fTouched != 0 {
			sortPreds(t.preds[v])
		}
	}
	// Close touched over the new DAG's descendants: a node's derived next
	// hops (NextHops, Paths) depend on the predecessor sets of
	// every node on its shortest-path DAG, so a change anywhere upstream
	// counts as a change for all nodes routing through it. Building the
	// CSR here doubles as priming t's cache for the next patch.
	children := t.childrenCSR()
	queue = queue[:0]
	for v := 0; v < n; v++ {
		if flags[v]&fTouched != 0 {
			queue = append(queue, topo.NodeID(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, w := range children.of(queue[i]) {
			if flags[w]&fTouched == 0 {
				flags[w] |= fTouched
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue
	touched = t.touched[:0]
	for v := 0; v < n; v++ {
		if flags[v]&fTouched != 0 {
			touched = append(touched, topo.NodeID(v))
		}
	}
	t.touched = touched
	return t, touched, false
}

// fit returns s resized to n elements, in place when its capacity allows.
// Fresh storage gets half as much again as headroom. Kept elements are not
// cleared: callers overwrite the first n.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}

// childrenCSR returns (building lazily and caching) the CSR inversion of
// the tree's predecessor DAG.
func (t *Tree) childrenCSR() dagChildren {
	if !t.kidsOK {
		t.kids = t.kids.rebuild(t.preds)
		t.kidsOK = true
	}
	return t.kids
}

// dagChildren is a compact CSR (offset + flat array) inversion of a
// predecessor DAG: two arrays instead of one slice per node, rebuilt in
// place when a tree's storage is reused, which keeps the closure passes
// off the allocator on the hot path.
type dagChildren struct {
	off  []int32
	kids []topo.NodeID
}

// rebuild returns the CSR of preds, written into d's arrays when they are
// large enough.
func (d dagChildren) rebuild(preds [][]pred) dagChildren {
	// Counting sort with the cursor-shift trick: counts land at off[v+2],
	// the fill pass advances off[v+1] from start(v) to end(v), leaving
	// off[u]:off[u+1] as u's final extent — no separate cursor array.
	n := len(preds)
	off := fit(d.off, n+2)
	clear(off)
	for v := 0; v < n; v++ {
		for _, p := range preds[v] {
			off[p.from+2]++
		}
	}
	for i := 2; i <= n+1; i++ {
		off[i] += off[i-1]
	}
	kids := fit(d.kids, int(off[n+1]))
	for v := 0; v < n; v++ {
		for _, p := range preds[v] {
			kids[off[p.from+1]] = topo.NodeID(v)
			off[p.from+1]++
		}
	}
	return dagChildren{off: off, kids: kids}
}

func (d dagChildren) of(u topo.NodeID) []topo.NodeID {
	return d.kids[d.off[u]:d.off[u+1]]
}
