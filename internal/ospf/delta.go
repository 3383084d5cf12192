package ospf

// This file is the IGP stage of the delta pipeline. Every LSDB mutation is
// logged between SPF runs; when the debounced recomputation fires, the log
// is replayed onto a cached SPF graph as edge-level GraphChanges, the
// shortest-path tree is patched with Scratch.IncrementalInto (into the storage
// of the tree it replaced the run before), and only prefixes whose
// announcers were touched (or whose LSAs changed) have their routes
// recomputed. The result leaves the router as a fib.Diff instead of a
// whole table, which the data plane uses to re-path only affected flows.
// The replay's working state lives in the cache between runs, so a
// steady-state run allocates only what it hands on: the predecessor lists
// the patch rewrote, the changed routes, the diff and the new table.
//
// The cached graph uses stable slot indices: a router or fake node keeps
// its graph index for as long as it lives, and freed slots are tombstoned
// (no edges) rather than compacted, so previous trees stay addressable.
//
// A router's first run needs no rebuild either. Domain.Start leaves every
// router of a flood component with the same LSDB, so it builds one cache
// per component, the boot image (graph, slots, indexes and the announcer
// index with its announcers resolved), and each router's first run clones
// it and roots its own tree over the clone. The clone copies the graph and
// the slots, but shares the image's two slot indexes until its first
// write to each (spfCache.ownIndex, ownFakeIdx), and its prefix entries
// and byPrefix map: an entry is copied on the first write to it (see
// spfCache.own). Most routers never write either after boot.
// The first run then builds its whole table at a cost per router, not per
// route: the table reserves its trie nodes and values (fib.Table.Reserve)
// and the routes' next hops are carved from a few shared chunks
// (hopArena). A full rebuild (buildCache + full Dijkstra + whole-table
// diff) is the fallback: for a router whose LSDB changed before its first
// run, after a cache inconsistency, and to compact tombstoned slots.

import (
	"cmp"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"

	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// lsaChange records one LSDB mutation between SPF runs. old and new are
// the stored instances (nil for install of a fresh key / removal).
type lsaChange struct {
	old, new *LSA
}

// noteDBChange appends to the change log unless the mutation is
// semantically neutral (a sequence-number refresh of identical content),
// which keeps periodic re-origination from triggering any SPF work. With
// no cache there is nothing to replay onto, since the next run rebuilds
// from the LSDB; the change only drops the boot image, which no longer
// matches the LSDB.
func (r *Router) noteDBChange(old, new *LSA) {
	if old == nil && new == nil {
		return
	}
	if r.cache == nil {
		r.image = nil
		return
	}
	if old != nil && new != nil && lsaContentEqual(old, new) {
		return
	}
	r.changeLog = append(r.changeLog, lsaChange{old: old, new: new})
}

// dbInstall stores an LSA and logs the transition.
func (r *Router) dbInstall(l *LSA) {
	r.noteDBChange(r.db.Install(l), l)
}

// dbRemove deletes an LSA and logs the transition.
func (r *Router) dbRemove(k Key) {
	old, ok := r.db.Get(k)
	if !ok {
		return
	}
	r.db.Remove(k)
	r.noteDBChange(old, nil)
}

// lsaContentEqual compares the routing-relevant payload of two instances
// of the same key. Router links are compared as multisets. Routers
// originate them in (Neighbor, Metric) order — originateRouterLSA walks
// nbrList — so the usual case is compared in place; foreign LSAs may list
// the same adjacencies in any order and take the sorting path.
func lsaContentEqual(a, b *LSA) bool {
	if a.Header.Type != b.Header.Type {
		return false
	}
	switch a.Header.Type {
	case TypeRouter:
		if len(a.RouterLinks) != len(b.RouterLinks) {
			return false
		}
		as, bs := a.RouterLinks, b.RouterLinks
		if !slices.IsSortedFunc(as, compareLinks) || !slices.IsSortedFunc(bs, compareLinks) {
			as, bs = slices.Clone(as), slices.Clone(bs)
			slices.SortFunc(as, compareLinks)
			slices.SortFunc(bs, compareLinks)
		}
		return slices.Equal(as, bs)
	case TypePrefix:
		return a.Prefix == b.Prefix && a.Metric == b.Metric
	case TypeFake:
		return a.Prefix == b.Prefix && a.Metric == b.Metric &&
			a.AttachedTo == b.AttachedTo && a.AttachCost == b.AttachCost &&
			a.ForwardVia == b.ForwardVia
	}
	return false
}

func compareLinks(a, b RouterLink) int {
	if c := cmp.Compare(a.Neighbor, b.Neighbor); c != 0 {
		return c
	}
	return cmp.Compare(a.Metric, b.Metric)
}

// --- Cached SPF state ---------------------------------------------------

type slotKind uint8

const (
	slotFree slotKind = iota
	slotRouter
	slotFake
)

// slot describes what occupies one graph index.
type slot struct {
	kind   slotKind
	router RouterID // kind == slotRouter
	fake   *LSA     // kind == slotFake
}

// spfCache is the incrementally maintained SPF state of one router.
type spfCache struct {
	g       *spf.Graph
	slots   []slot
	index   map[RouterID]topo.NodeID // live router -> slot
	fakeIdx map[Key]topo.NodeID      // fake LSA key -> slot
	live    int
	tree    *spf.Tree // rooted at this router's own slot
	spare   *spf.Tree // the tree that tree replaced: the next patch's storage

	// A clone reads the boot image's index and fakeIdx until its first
	// write to each, which copies the map (ownIndex, ownFakeIdx).
	indexShared, fakeIdxShared bool

	// routerGen counts router slot allocations and frees: the announcer
	// memos of the prefix entries are valid for one generation.
	routerGen uint64

	// The announcer index: who announces each prefix, kept in step with
	// the LSDB by applyChange so an SPF run never rescans the database.
	// prefixes holds the live entries sorted by string form, the order in
	// which routes are computed, diffed and their errors raised; lookup
	// finds an entry by prefix. A clone of a boot image reads through to
	// the image (base): byPrefix holds only the entries it created or
	// owns, and a nil for an image entry it pruned. A cache without base
	// holds every entry in byPrefix.
	byPrefix map[netip.Prefix]*prefixEntry
	base     *spfCache
	prefixes []*prefixEntry

	// Per-run working state, kept between runs so that a steady-state run
	// allocates only what it hands on: the replay's effects, the neighbors
	// a Router LSA change names, the slots the patch touched (a bitset),
	// an announcer's next hops and a route's real next-hop routers, and
	// the prefixes left without announcer.
	eff     effects
	nbrs    []RouterID
	touched []uint64
	nhs     []spf.NextHop
	nodes   []topo.NodeID
	hops    []fib.NextHop
	gone    []netip.Prefix
}

// prefixEntry lists the Prefix and Fake LSAs naming one prefix, in LSDB
// key order (Prefix LSAs first). It holds LSAs, not graph slots: those are
// resolved on first use and memoised in anns until the entry's own LSAs
// change (announce, withdraw) or a router slot comes or goes. A fake's
// slot comes and goes only with an announce or withdraw of the fake on its
// own entry, so it needs no invalidation of its own.
type prefixEntry struct {
	prefix netip.Prefix
	str    string // prefix.String(), computed once
	lsas   []*LSA

	anns    []announcer
	annsGen uint64 // the routerGen anns was resolved at; 0: not resolved
	dirty   bool   // listed in the current replay's effects
	// shared marks an entry of a boot image: every clone of the image
	// reads it, so nothing writes it. A cache writes a copy of its own
	// instead (own).
	shared bool
}

func (e *prefixEntry) compareStr(s string) int { return strings.Compare(e.str, s) }

func lsaCompareKey(l *LSA, k Key) int { return keyCompare(l.Header.Key(), k) }

// lookup returns the index entry of p, or nil.
func (c *spfCache) lookup(p netip.Prefix) *prefixEntry {
	if e, ok := c.byPrefix[p]; ok || c.base == nil {
		return e
	}
	return c.base.byPrefix[p]
}

// setEntry files e (nil: a pruned image entry) under p in c's own map.
func (c *spfCache) setEntry(p netip.Prefix, e *prefixEntry) {
	if c.byPrefix == nil {
		c.byPrefix = make(map[netip.Prefix]*prefixEntry)
	}
	c.byPrefix[p] = e
}

// entry returns the index entry of p and whether it had to be created; a
// created entry is not yet in c.prefixes.
func (c *spfCache) entry(p netip.Prefix) (e *prefixEntry, created bool) {
	if e = c.lookup(p); e != nil {
		return e, false
	}
	e = &prefixEntry{prefix: p, str: p.String()}
	c.setEntry(p, e)
	return e, true
}

// own returns e for writing. An entry shared with the boot image is
// replaced, in the index and in prefixes, by a copy of its own with its
// own lists, once: a later call with the shared entry finds the copy. The
// copy-on-write replaces the clone's per-entry copies; the boot image's
// entries stay as Start left them.
func (c *spfCache) own(e *prefixEntry) *prefixEntry {
	if !e.shared {
		return e
	}
	if x := c.byPrefix[e.prefix]; x != nil {
		return x
	}
	x := &prefixEntry{prefix: e.prefix, str: e.str, lsas: slices.Clone(e.lsas),
		anns: slices.Clone(e.anns), annsGen: e.annsGen}
	c.setEntry(x.prefix, x)
	at, _ := slices.BinarySearchFunc(c.prefixes, x.str, (*prefixEntry).compareStr)
	c.prefixes[at] = x
	return x
}

// announce files a Prefix or Fake LSA under its prefix and marks the
// prefix dirty.
func (c *spfCache) announce(l *LSA) {
	e, created := c.entry(l.Prefix)
	if created {
		at, _ := slices.BinarySearchFunc(c.prefixes, e.str, (*prefixEntry).compareStr)
		c.prefixes = slices.Insert(c.prefixes, at, e)
	}
	e = c.own(e)
	at, _ := slices.BinarySearchFunc(e.lsas, l.Header.Key(), lsaCompareKey)
	e.lsas = slices.Insert(e.lsas, at, l)
	e.annsGen = 0
	c.markDirty(e)
}

// withdraw removes the LSA with l's key from l's prefix, reporting whether
// it was filed there, and marks the prefix dirty. An entry left empty
// stays until the end of the SPF run (prune), which still has to delete
// its route.
func (c *spfCache) withdraw(l *LSA) bool {
	e := c.lookup(l.Prefix)
	if e == nil {
		return false
	}
	e = c.own(e)
	at, ok := slices.BinarySearchFunc(e.lsas, l.Header.Key(), lsaCompareKey)
	if ok {
		e.lsas = slices.Delete(e.lsas, at, at+1)
		e.annsGen = 0
	}
	c.markDirty(e)
	return ok
}

// markDirty lists e in the replay's effects: its route is recomputed
// whatever the tree patch touched.
func (c *spfCache) markDirty(e *prefixEntry) {
	if e = c.own(e); !e.dirty {
		e.dirty = true
		c.eff.dirty = append(c.eff.dirty, e)
	}
}

// prune drops e, an entry of c's own, from the index if no LSA names its
// prefix any more.
func (c *spfCache) prune(e *prefixEntry) {
	if len(e.lsas) > 0 {
		return
	}
	if c.base != nil && c.base.byPrefix[e.prefix] != nil {
		c.byPrefix[e.prefix] = nil
	} else {
		delete(c.byPrefix, e.prefix)
	}
	if at, ok := slices.BinarySearchFunc(c.prefixes, e.str, (*prefixEntry).compareStr); ok {
		c.prefixes = slices.Delete(c.prefixes, at, at+1)
	}
}

func (c *spfCache) allocSlot(s slot) topo.NodeID {
	idx := c.g.AddNode()
	c.slots = append(c.slots, s)
	c.live++
	if s.kind == slotRouter {
		c.routerGen++
	}
	return idx
}

func (c *spfCache) freeSlot(idx topo.NodeID) {
	if c.slots[idx].kind == slotRouter {
		c.routerGen++
	}
	c.slots[idx] = slot{}
	c.live--
}

// routerNode resolves a graph index of a real router to its topology node.
func (c *spfCache) routerNode(idx topo.NodeID) (topo.NodeID, bool) {
	if int(idx) >= len(c.slots) || c.slots[idx].kind != slotRouter {
		return 0, false
	}
	return RouterNode(c.slots[idx].router), true
}

// routerLSA fetches the current Router LSA of id (LSID 0 by construction).
func (r *Router) routerLSA(id RouterID) *LSA {
	l, ok := r.db.Get(Key{Type: TypeRouter, AdvRouter: id, LSID: 0})
	if !ok {
		return nil
	}
	return l
}

func listsNeighbor(l *LSA, id RouterID) bool {
	if l == nil {
		return false
	}
	for _, rl := range l.RouterLinks {
		if rl.Neighbor == id {
			return true
		}
	}
	return false
}

// buildCache materialises the LSDB into a fresh cache: real routers first
// (two-way-checked adjacencies), then one leaf slot per fake LSA. Fakes
// whose attachment router is unknown keep a slot but no edge, so a later
// appearance of the router links them incrementally. The announcer index
// is filled in bulk: LSAs arrive in key order, so each is appended, and
// the prefixes are sorted once at the end.
func (r *Router) buildCache() *spfCache {
	c := &spfCache{
		g:         spf.NewGraph(0),
		index:     make(map[RouterID]topo.NodeID),
		fakeIdx:   make(map[Key]topo.NodeID),
		byPrefix:  make(map[netip.Prefix]*prefixEntry),
		routerGen: 1, // 0 marks an entry as never resolved
	}
	file := func(l *LSA) {
		e, created := c.entry(l.Prefix)
		if created {
			c.prefixes = append(c.prefixes, e)
		}
		e.lsas = append(e.lsas, l)
	}
	routerLSAs := r.db.ByType(TypeRouter)
	byRouter := make(map[RouterID]*LSA, len(routerLSAs))
	for _, l := range routerLSAs {
		c.ownIndex()[l.Header.AdvRouter] = c.allocSlot(slot{kind: slotRouter, router: l.Header.AdvRouter})
		byRouter[l.Header.AdvRouter] = l
	}
	for _, l := range routerLSAs {
		u := c.index[l.Header.AdvRouter]
		for _, rl := range l.RouterLinks {
			v, ok := c.index[rl.Neighbor]
			if !ok {
				continue
			}
			if !listsNeighbor(byRouter[rl.Neighbor], l.Header.AdvRouter) {
				continue // two-way check failed
			}
			c.g.AddEdge(u, spf.Edge{To: v, Weight: int64(rl.Metric), Link: topo.NoLink})
		}
	}
	for _, l := range r.db.ByType(TypePrefix) {
		file(l)
	}
	for _, l := range r.db.ByType(TypeFake) {
		idx := c.allocSlot(slot{kind: slotFake, fake: l})
		c.ownFakeIdx()[l.Header.Key()] = idx
		if attach, ok := c.index[l.AttachedTo]; ok {
			c.g.AddEdge(attach, spf.Edge{To: idx, Weight: int64(l.AttachCost), Link: topo.NoLink})
		}
		file(l)
	}
	slices.SortFunc(c.prefixes, func(a, b *prefixEntry) int { return a.compareStr(b.str) })
	return c
}

// clone copies a boot image for one router's first run: the graph and the
// slot table. The two slot indexes stay the image's until the clone first
// writes one (ownIndex, ownFakeIdx), and the prefix entries, memos
// included, and the map that finds them until it first writes an entry
// (own). The image is only read, so every router of one component clones
// the same image.
func (c *spfCache) clone() *spfCache {
	return &spfCache{
		g:             c.g.Clone(),
		slots:         slices.Clone(c.slots),
		index:         c.index,
		fakeIdx:       c.fakeIdx,
		indexShared:   true,
		fakeIdxShared: true,
		live:          c.live,
		routerGen:     c.routerGen,
		base:          c,
		prefixes:      slices.Clone(c.prefixes),
	}
}

// ownIndex returns c.index for writing, first copying it if it is still
// the boot image's.
func (c *spfCache) ownIndex() map[RouterID]topo.NodeID {
	if c.indexShared {
		c.index, c.indexShared = maps.Clone(c.index), false
	}
	return c.index
}

// ownFakeIdx returns c.fakeIdx for writing, first copying it if it is
// still the boot image's.
func (c *spfCache) ownFakeIdx() map[Key]topo.NodeID {
	if c.fakeIdxShared {
		c.fakeIdx, c.fakeIdxShared = maps.Clone(c.fakeIdx), false
	}
	return c.fakeIdx
}

// share seals c as a boot image: its announcer memos are resolved, and
// its entries are marked shared, so a clone copies one before writing it.
func (c *spfCache) share() {
	for _, e := range c.prefixes {
		c.resolved(e)
		e.shared = true
	}
}

// hopArena hands out the next-hop slices of one full run's routes. Each
// is cut from a chunk the arena allocated and capped at its length, so the
// run allocates a few chunks instead of a slice per route; fib never
// writes a stored slice, and the cap keeps an append to one route's slice
// off the next route's next hops. A nil arena hands out a fresh slice per
// route: an incremental run's routes leave one by one in its diff.
type hopArena struct {
	free []fib.NextHop
	left int // routes the run may still carve
}

// cut returns a copy of hops that the route may keep.
func (a *hopArena) cut(hops []fib.NextHop) []fib.NextHop {
	if a == nil {
		return slices.Clone(hops)
	}
	if len(hops) > len(a.free) {
		// Size the chunk as if every route still to come had as many
		// next hops as this one: a component's routes mostly share their
		// ECMP width.
		a.free = make([]fib.NextHop, len(hops)*a.left)
	}
	a.left--
	k := copy(a.free, hops)
	cut := a.free[:k:k]
	a.free = a.free[k:]
	return cut
}

// effects accumulates what a change-log replay did to the cache.
type effects struct {
	edges   []spf.GraphChange
	dirty   []*prefixEntry // entries whose routes must be recomputed, each flagged dirty
	rebuild bool           // cache inconsistent: fall back to a full rebuild
}

// reset empties the effects after a replay, clearing the entries' dirty
// flags.
func (eff *effects) reset() {
	for _, e := range eff.dirty {
		e.dirty = false
	}
	clear(eff.dirty)
	eff.edges, eff.dirty, eff.rebuild = eff.edges[:0], eff.dirty[:0], false
}

// addEdge records a GraphChange if ReplaceEdges reported one.
func (eff *effects) addEdge(changed bool, from, to topo.NodeID) {
	if changed {
		eff.edges = append(eff.edges, spf.GraphChange{From: from, To: to})
	}
}

// applyChange replays one LSDB mutation onto the cached graph.
func (r *Router) applyChange(c *spfCache, ch lsaChange) {
	eff := &c.eff
	l := ch.new
	if l == nil {
		l = ch.old
	}
	switch l.Header.Type {
	case TypeRouter:
		x := l.Header.AdvRouter
		added, removed := ch.old == nil, ch.new == nil
		if added {
			if _, dup := c.index[x]; dup {
				eff.rebuild = true
				return
			}
			c.ownIndex()[x] = c.allocSlot(slot{kind: slotRouter, router: x})
		}
		if _, ok := c.index[x]; !ok {
			eff.rebuild = true // change for a router the cache never saw
			return
		}
		// Adjacencies of X against every neighbor mentioned before or
		// after: presence, weight, and the two-way check can all flip.
		nbrs := c.nbrs[:0]
		if ch.old != nil {
			for _, rl := range ch.old.RouterLinks {
				nbrs = append(nbrs, rl.Neighbor)
			}
		}
		if ch.new != nil {
			for _, rl := range ch.new.RouterLinks {
				nbrs = append(nbrs, rl.Neighbor)
			}
		}
		slices.Sort(nbrs)
		nbrs = slices.Compact(nbrs)
		c.nbrs = nbrs
		if removed {
			// Clear the slot's edges explicitly instead of reconciling
			// from the LSDB: when X was removed and re-added within one
			// debounce window, the database already holds the re-added
			// instance, and deriving from it would re-install edges on
			// the slot we are about to tombstone (the re-add then wires
			// a fresh slot, leaving a live phantom copy of X).
			xi := c.index[x]
			for _, y := range nbrs {
				yi, ok := c.index[y]
				if !ok {
					continue
				}
				eff.addEdge(c.g.ReplaceEdges(xi, yi, nil), xi, yi)
				eff.addEdge(c.g.ReplaceEdges(yi, xi, nil), yi, xi)
			}
			c.freeSlot(xi)
			delete(c.ownIndex(), x)
		} else {
			xl := r.routerLSA(x)
			for _, y := range nbrs {
				r.reconcileAdjacency(c, x, xl, y)
			}
		}
		if added || removed {
			// Prefixes announced by X appear or disappear with it. The
			// index is as of this point of the replay; a Prefix LSA of X
			// that comes or goes later in the log dirties its prefix then.
			for _, e := range c.prefixes {
				for _, pl := range e.lsas {
					if pl.Header.Type == TypePrefix && pl.Header.AdvRouter == x {
						c.markDirty(e)
						break
					}
				}
			}
		}
		// Fakes hanging off X: their edge follows X's slot, and their
		// usability follows our adjacency state (a lie's forwarding
		// address is gated on the neighbor being up), so mark their
		// prefixes dirty on any change. When X was just removed, its
		// tombstoned slot keeps a stale out-edge to the fake: harmless,
		// because the slot has no in-edges left and the removal of those
		// in-edges dirties the fake transitively.
		for _, fi := range c.fakeIdx {
			f := c.slots[fi].fake
			if f == nil || f.AttachedTo != x {
				continue
			}
			if e := c.lookup(f.Prefix); e != nil {
				c.markDirty(e)
			}
			if attachIdx, ok := c.index[x]; ok {
				eff.addEdge(c.g.ReplaceEdges(attachIdx, fi, []spf.Edge{{Weight: int64(f.AttachCost), Link: topo.NoLink}}), attachIdx, fi)
			}
		}
	case TypePrefix:
		if ch.old != nil && !c.withdraw(ch.old) {
			eff.rebuild = true
			return
		}
		if ch.new != nil {
			c.announce(ch.new)
		}
	case TypeFake:
		k := l.Header.Key()
		if ch.old != nil {
			idx, ok := c.fakeIdx[k]
			if !ok || !c.withdraw(ch.old) {
				eff.rebuild = true
				return
			}
			if attach, aok := c.index[ch.old.AttachedTo]; aok {
				eff.addEdge(c.g.ReplaceEdges(attach, idx, nil), attach, idx)
			}
			if ch.new == nil {
				c.freeSlot(idx)
				delete(c.ownFakeIdx(), k)
				return
			}
			c.slots[idx].fake = ch.new
		} else {
			c.ownFakeIdx()[k] = c.allocSlot(slot{kind: slotFake, fake: ch.new})
		}
		idx := c.fakeIdx[k]
		c.announce(ch.new)
		if attach, ok := c.index[ch.new.AttachedTo]; ok {
			eff.addEdge(c.g.ReplaceEdges(attach, idx, []spf.Edge{{Weight: int64(ch.new.AttachCost), Link: topo.NoLink}}), attach, idx)
		}
	}
}

// reconcileAdjacency re-derives the graph edges between routers x and y
// from their current LSAs (two-way check included; xl is x's) and records
// a GraphChange per direction that differed. The edge lists are built on
// the stack: parallel links between two routers are few.
func (r *Router) reconcileAdjacency(c *spfCache, x RouterID, xl *LSA, y RouterID) {
	if x == y {
		return
	}
	xi, xok := c.index[x]
	yi, yok := c.index[y]
	if !xok || !yok {
		return // a missing slot has no edges to reconcile
	}
	yl := r.routerLSA(y)
	var xyBuf, yxBuf [4]spf.Edge
	xy, yx := xyBuf[:0], yxBuf[:0]
	if listsNeighbor(yl, x) && xl != nil {
		for _, rl := range xl.RouterLinks {
			if rl.Neighbor == y {
				xy = append(xy, spf.Edge{Weight: int64(rl.Metric), Link: topo.NoLink})
			}
		}
	}
	if listsNeighbor(xl, y) && yl != nil {
		for _, rl := range yl.RouterLinks {
			if rl.Neighbor == x {
				yx = append(yx, spf.Edge{Weight: int64(rl.Metric), Link: topo.NoLink})
			}
		}
	}
	c.eff.addEdge(c.g.ReplaceEdges(xi, yi, xy), xi, yi)
	c.eff.addEdge(c.g.ReplaceEdges(yi, xi, yx), yi, xi)
}

// --- Route computation over the cache -----------------------------------

// announcer is one source of a prefix: a Prefix LSA's advertising router,
// or a fake node.
type announcer struct {
	idx    topo.NodeID // graph slot of the announcing node
	metric uint32
	fake   *LSA
}

// resolved returns e's announcers, resolving them only when the memo is
// stale (see prefixEntry).
func (c *spfCache) resolved(e *prefixEntry) []announcer {
	if e.annsGen != c.routerGen {
		e = c.own(e)
		e.anns = c.announcers(e, e.anns[:0])
		e.annsGen = c.routerGen
	}
	return e.anns
}

// announcers appends to buf the announcers of one prefix, in the entry's
// LSDB key order (so the errors routeFor raises while scanning them come in
// the same order on every run). An LSA whose node has no graph slot — a
// Prefix LSA of a router the cache does not know, a fake it never saw — is
// skipped; a prefix left with no announcer at all has no route.
func (c *spfCache) announcers(e *prefixEntry, buf []announcer) []announcer {
	for _, l := range e.lsas {
		if l.Header.Type == TypePrefix {
			if idx, ok := c.index[l.Header.AdvRouter]; ok {
				buf = append(buf, announcer{idx: idx, metric: l.Metric})
			}
		} else if fi, ok := c.fakeIdx[l.Header.Key()]; ok {
			f := c.slots[fi].fake
			buf = append(buf, announcer{idx: fi, metric: f.Metric, fake: f})
		}
	}
	return buf
}

// routeFor computes the route this router installs for one prefix: best
// distance across announcers, deduplicated real ECMP next hops, plus one
// extra weighted path per locally attached fake (Fibbing's uneven
// splitting). ok is false when no route is installable. The next hops are
// built in the cache's scratch and handed out through arena.
func (r *Router) routeFor(c *spfCache, p netip.Prefix, anns []announcer, selfIdx topo.NodeID, arena *hopArena) (fib.Route, bool) {
	tree := c.tree
	// A slot allocated since the tree was last patched has no edge yet (an
	// edge would have forced an SPF run), so the tree does not cover it.
	reachable := func(idx topo.NodeID) bool {
		return int(idx) < len(tree.Dist) && tree.Reachable(idx)
	}
	best := spf.Infinity
	local := false
	for _, a := range anns {
		if a.fake == nil && a.idx == selfIdx {
			local = true
			break
		}
		if !reachable(a.idx) {
			continue
		}
		if d := tree.Dist[a.idx] + int64(a.metric); d < best {
			best = d
		}
	}
	if local {
		return fib.Route{Prefix: p, Local: true}, true
	}
	if best == spf.Infinity {
		return fib.Route{}, false
	}
	// Real next hops count once however many announcers share them;
	// every local fake adds one unit of weight to its forwarding neighbor,
	// summed by Normalize, which merges equal (node, link) entries.
	nhs := c.hops[:0]
	nodes := c.nodes[:0]
	for _, a := range anns {
		if !reachable(a.idx) || tree.Dist[a.idx]+int64(a.metric) != best {
			continue
		}
		if a.fake != nil && a.fake.AttachedTo == r.id {
			via := RouterNode(a.fake.ForwardVia)
			l, ok := r.dom.topo.FindLink(r.node, via)
			if !ok {
				r.dom.protocolError(r.id, fmt.Errorf(
					"ospf: fake LSA %s forwards via non-neighbor %d",
					a.fake.Header.Key(), a.fake.ForwardVia))
				continue
			}
			// A fake next hop is only usable while the adjacency to its
			// forwarding address is up — otherwise the lie would blackhole
			// traffic after a link failure.
			if nb := r.neighbor(a.fake.ForwardVia); nb == nil || !nb.up {
				continue
			}
			nhs = append(nhs, fib.NextHop{Node: via, Link: l.ID, Weight: 1})
			continue
		}
		c.nhs = r.dom.spfScratch.AppendNextHops(c.nhs[:0], tree, a.idx)
		for _, nh := range c.nhs {
			if node, ok := c.routerNode(nh.Node); ok {
				nodes = append(nodes, node)
			}
		}
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	c.nodes = nodes
	for _, node := range nodes {
		l, ok := r.dom.topo.FindLink(r.node, node)
		if !ok {
			continue
		}
		nhs = append(nhs, fib.NextHop{Node: node, Link: l.ID, Weight: 1})
	}
	c.hops = nhs
	if len(nhs) == 0 {
		return fib.Route{}, false
	}
	route := fib.Route{Prefix: p, NextHops: nhs, Distance: best}
	route.Normalize()
	route.NextHops = arena.cut(route.NextHops)
	return route, true
}
