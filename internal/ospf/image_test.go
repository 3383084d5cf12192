package ospf

// The boot image's contract: Domain.Start builds one cache per flood
// component, and the clone each router's first run takes of it equals what
// buildCache, the per-router build that stays the fallback, makes of that
// router's LSDB. A router whose LSDB changes before its first run drops
// the image and rebuilds from its LSDB.

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// diffCaches compares got, a cache with its announcer memos resolved,
// with want, a cache fresh from buildCache: the graph (edge lists in
// order, or as multisets when ordered is false), the slot table, the
// router and fake indexes, the slot counts and router generation, and
// every prefix entry with its LSAs (the very instances) and its
// announcers, got's memo against a fresh resolution in want.
func diffCaches(got, want *spfCache, ordered bool) error {
	if len(got.g.Out) != len(want.g.Out) {
		return fmt.Errorf("graph has %d nodes, want %d", len(got.g.Out), len(want.g.Out))
	}
	for u := range want.g.Out {
		a, b := got.g.Out[u], want.g.Out[u]
		if !ordered {
			a, b = sortedEdges(a), sortedEdges(b)
		}
		if !slices.Equal(a, b) {
			return fmt.Errorf("node %d: edges %v, want %v", u, got.g.Out[u], want.g.Out[u])
		}
	}
	if !slices.Equal(got.slots, want.slots) {
		return fmt.Errorf("slots %v, want %v", got.slots, want.slots)
	}
	if !maps.Equal(got.index, want.index) || !maps.Equal(got.fakeIdx, want.fakeIdx) {
		return fmt.Errorf("indexes %v %v, want %v %v", got.index, got.fakeIdx, want.index, want.fakeIdx)
	}
	if got.live != want.live || got.routerGen != want.routerGen {
		return fmt.Errorf("live %d gen %d, want live %d gen %d", got.live, got.routerGen, want.live, want.routerGen)
	}
	if len(got.prefixes) != len(want.prefixes) || entryCount(got) != entryCount(want) {
		return fmt.Errorf("%d prefixes (%d by prefix), want %d", len(got.prefixes), entryCount(got), len(want.prefixes))
	}
	for i, w := range want.prefixes {
		e := got.prefixes[i]
		switch {
		case e.prefix != w.prefix || e.str != w.str || got.lookup(e.prefix) != e:
			return fmt.Errorf("entry %d is %s, want %s", i, e.str, w.str)
		case !slices.Equal(e.lsas, w.lsas):
			return fmt.Errorf("entry %s: LSAs %v, want %v", e.str, e.lsas, w.lsas)
		case e.annsGen != got.routerGen:
			return fmt.Errorf("entry %s: announcers resolved at generation %d, want %d", e.str, e.annsGen, got.routerGen)
		case !reflect.DeepEqual(e.anns, want.announcers(w, nil)):
			return fmt.Errorf("entry %s: announcers %+v, want %+v", e.str, e.anns, want.announcers(w, nil))
		case e.dirty:
			return fmt.Errorf("entry %s is flagged dirty", e.str)
		}
	}
	return nil
}

func sortedEdges(es []spf.Edge) []spf.Edge {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b spf.Edge) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Weight, b.Weight))
	})
	return es
}

// scribble writes into every part of c, a clone r's first run would take,
// that a later run writes in place. The slot indexes meet their writers
// first: a fake is injected (fakeIdx), a router joins and r itself leaves
// (index). Then each prefix entry meets one of the index's writers in
// turn: a
// withdrawal of its first LSA (slices.Delete shifts the list and zeroes
// its tail), a second announcement of it, a dirty mark, or a re-resolved
// stale memo. Then every memo, stale after a router generation, is
// re-resolved and zeroed, the dirty marks are cleared, and every node's
// edge list grows.
func scribble(r *Router, c *spfCache) {
	r.applyChange(c, lsaChange{new: &LSA{
		Header: Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 1, Seq: 1},
		Prefix: c.prefixes[0].prefix, AttachedTo: r.id, AttachCost: 1,
	}})
	r.applyChange(c, lsaChange{new: &LSA{Header: Header{Type: TypeRouter, AdvRouter: RouterID(1 << 30), Seq: 1}}})
	r.applyChange(c, lsaChange{old: r.routerLSA(r.id)})
	c.routerGen++
	for i, e := range c.prefixes {
		switch i % 4 {
		case 0:
			c.withdraw(e.lsas[0])
		case 1:
			c.announce(e.lsas[0])
		case 2:
			c.markDirty(e)
		default:
			c.resolved(e)
		}
	}
	for _, e := range c.prefixes {
		clear(c.resolved(e))
	}
	c.eff.reset()
	for u := range c.g.Out {
		c.g.ReplaceEdges(topo.NodeID(u), topo.NodeID(u), []spf.Edge{{Weight: 1}, {Weight: 2}})
	}
}

// TestBootImageMatchesPerRouterBuild: over the synced start's topology
// families, 5 seeds each, some with a link cut before Start, every router
// holds its component's image after Start; the clone it takes equals
// buildCache of its own LSDB; writing into one clone leaves the image and
// the other clones as they were; and after the first runs no router holds
// an image and every FIB and index equals the from-scratch recompute.
func TestBootImageMatchesPerRouterBuild(t *testing.T) {
	for _, f := range startFamilies {
		for seed := int64(1); seed <= 5; seed++ {
			label := fmt.Sprintf("%s seed %d", f.name, seed)
			rng := rand.New(rand.NewSource(seed))
			tp := f.tp(rng, seed)
			d := NewDomain(tp, event.NewScheduler(), Config{})
			if links := routerLinks(tp); seed%2 == 0 && len(links) > 0 {
				l := links[rng.Intn(len(links))]
				if err := d.SetLinkState(l.From, l.To, false); err != nil {
					t.Fatal(err)
				}
			}
			d.Start()
			var routers []*Router
			for _, n := range tp.Nodes() {
				if r := d.Router(n.ID); r != nil {
					routers = append(routers, r)
				}
			}
			clones := make([]*spfCache, len(routers))
			for i, r := range routers {
				if r.image == nil {
					t.Fatalf("%s: router %d holds no boot image after Start", label, r.id)
				}
				clones[i] = r.image.clone()
				if err := diffCaches(clones[i], r.buildCache(), true); err != nil {
					t.Fatalf("%s: router %d: the image's clone departs from the per-router build: %v", label, r.id, err)
				}
			}
			scribble(routers[0], clones[0])
			if _, ok := clones[0].index[RouterID(1<<30)]; !ok || len(clones[0].fakeIdx) == 0 {
				t.Fatalf("%s: the scribble left the clone's slot indexes unwritten", label)
			}
			for i, r := range routers {
				if err := diffCaches(r.image, r.buildCache(), true); err != nil {
					t.Fatalf("%s: router %d: writing into a clone changed the image: %v", label, r.id, err)
				}
				if i > 0 {
					if err := diffCaches(clones[i], r.buildCache(), true); err != nil {
						t.Fatalf("%s: router %d: writing into a clone changed another clone: %v", label, r.id, err)
					}
				}
			}
			if _, err := d.RunUntilConverged(time.Minute); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, r := range d.routers {
				if r.image != nil {
					t.Fatalf("%s: router %d still holds its image after its first run", label, r.id)
				}
			}
			assertFIBsMatchFull(t, label, d)
			assertIndexesMatchOracle(t, label, d)
		}
	}
}

// TestBootImageFallsBackOnEarlyChange: a weight flip at Start's instant,
// before any first run, changes the LSDBs of the link's ends at once and
// of the routers its flood reaches within spfDelay. Each of them must
// drop its image and build its first cache from its own LSDB, so every
// cache, FIB and index ends equal to a from-scratch build; a router that
// kept the image would route on the old weight. A component whose LSDBs
// were not empty at Start gets no image at all.
func TestBootImageFallsBackOnEarlyChange(t *testing.T) {
	for _, f := range startFamilies {
		label := f.name
		rng := rand.New(rand.NewSource(1))
		tp := f.tp(rng, 1)
		d := NewDomain(tp, event.NewScheduler(), Config{})
		d.Start()
		// A weight no shortest path keeps the link at.
		links := routerLinks(tp)
		l := links[rng.Intn(len(links))]
		if err := d.SetLinkWeight(l.From, l.To, 1<<20); err != nil {
			t.Fatal(err)
		}
		for _, end := range []topo.NodeID{l.From, l.To} {
			if d.Router(end).image != nil {
				t.Fatalf("%s: router %s kept its image after its LSDB changed", label, tp.Name(end))
			}
		}
		if _, err := d.RunUntilConverged(time.Minute); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for n, r := range d.routers {
			if err := diffCaches(r.cache, r.buildCache(), false); err != nil {
				t.Fatalf("%s: router %s: the cache departs from its LSDB: %v", label, tp.Name(n), err)
			}
		}
		assertFIBsMatchFull(t, label, d)
		assertIndexesMatchOracle(t, label, d)
	}

	tp := topo.Fig1(topo.Fig1Opts{})
	d := NewDomain(tp, event.NewScheduler(), Config{})
	a := d.Router(tp.MustNode("A"))
	a.db.Install(a.prefixLSA(7, topo.Prefix{Prefix: LoopbackPrefix(a.node)}, 3))
	d.Start()
	for _, r := range d.routers {
		if r.image != nil {
			t.Fatalf("router %d holds an image though A's LSDB was not empty at Start", r.id)
		}
	}
}
