package ospf

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// collectAnnouncers is the announcer index's reference oracle: the
// from-scratch LSDB scan every SPF run used to make, kept as it was. It
// groups the announcements of the whole database per prefix string.
func (r *Router) collectAnnouncers(c *spfCache) (map[string][]announcer, map[string]netip.Prefix) {
	byPrefix := make(map[string][]announcer)
	prefixOf := make(map[string]netip.Prefix)
	for _, l := range r.db.ByType(TypePrefix) {
		aIdx, ok := c.index[l.Header.AdvRouter]
		if !ok {
			continue
		}
		k := l.Prefix.String()
		byPrefix[k] = append(byPrefix[k], announcer{idx: aIdx, metric: l.Metric})
		prefixOf[k] = l.Prefix
	}
	for _, l := range r.db.ByType(TypeFake) {
		fi, ok := c.fakeIdx[l.Header.Key()]
		if !ok {
			continue
		}
		l = c.slots[fi].fake
		k := l.Prefix.String()
		byPrefix[k] = append(byPrefix[k], announcer{idx: fi, metric: l.Metric, fake: l})
		prefixOf[k] = l.Prefix
	}
	return byPrefix, prefixOf
}

// entryCount returns how many prefixes c.lookup finds an entry for: those
// of c's own map, and those of its boot image that c neither owns nor
// pruned.
func entryCount(c *spfCache) int {
	n := 0
	for _, e := range c.byPrefix {
		if e != nil {
			n++
		}
	}
	if c.base != nil {
		for p := range c.base.byPrefix {
			if _, own := c.byPrefix[p]; !own {
				n++
			}
		}
	}
	return n
}

// checkIndex compares a router's announcer index, as its SPF run left it,
// with the oracle: the same prefixes in the same (string) order, each with
// the same announcers in the same order — so also the same LSAs skipped
// for want of a graph slot — and the index's own ordering invariants. A
// memo of the current router generation must equal a fresh resolution.
func checkIndex(r *Router) error {
	c := r.cache
	if c == nil {
		return nil
	}
	want, prefixOf := r.collectAnnouncers(c)
	wantKeys := make([]string, 0, len(want))
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	slices.Sort(wantKeys)

	if n := entryCount(c); n != len(c.prefixes) {
		return fmt.Errorf("index has %d entries by prefix, %d in order", n, len(c.prefixes))
	}
	var gotKeys []string
	for i, e := range c.prefixes {
		if c.lookup(e.prefix) != e || e.str != e.prefix.String() {
			return fmt.Errorf("entry %d (%s) is not the entry of prefix %v", i, e.str, e.prefix)
		}
		if i > 0 && c.prefixes[i-1].str >= e.str {
			return fmt.Errorf("entries out of order: %s before %s", c.prefixes[i-1].str, e.str)
		}
		if len(e.lsas) == 0 {
			return fmt.Errorf("entry %s survived its last LSA", e.str)
		}
		for j := 1; j < len(e.lsas); j++ {
			if keyCompare(e.lsas[j-1].Header.Key(), e.lsas[j].Header.Key()) >= 0 {
				return fmt.Errorf("entry %s: LSAs out of key order", e.str)
			}
		}
		got := c.announcers(e, nil)
		if e.annsGen == c.routerGen && !slices.Equal(e.anns, got) {
			return fmt.Errorf("entry %s: memoised announcers are stale:\n memo  %+v\n fresh %+v", e.str, e.anns, got)
		}
		if e.dirty {
			return fmt.Errorf("entry %s is still flagged dirty after the run", e.str)
		}
		if len(got) == 0 {
			continue // announced only by nodes without a slot: the oracle has no key
		}
		gotKeys = append(gotKeys, e.str)
		if prefixOf[e.str] != e.prefix {
			return fmt.Errorf("entry %s holds prefix %v, oracle %v", e.str, e.prefix, prefixOf[e.str])
		}
		if !reflect.DeepEqual(got, want[e.str]) {
			return fmt.Errorf("announcers of %s:\n index  %+v\n oracle %+v", e.str, got, want[e.str])
		}
	}
	if !slices.Equal(gotKeys, wantKeys) {
		return fmt.Errorf("prefixes:\n index  %v\n oracle %v", gotKeys, wantKeys)
	}
	return nil
}

func assertIndexesMatchOracle(t *testing.T, label string, d *Domain) {
	t.Helper()
	for n, r := range d.Routers() {
		if err := checkIndex(r); err != nil {
			t.Fatalf("%s: router %s: %v", label, d.Topology().Name(n), err)
		}
	}
}

// assertRouterMatchesFull checks one router whose LSDB a test edited by
// hand: FIB equal to the from-scratch recompute, index equal to the oracle.
func assertRouterMatchesFull(t *testing.T, label string, r *Router) {
	t.Helper()
	_, want, ok := r.buildFullState()
	if !ok {
		t.Fatalf("%s: no full state", label)
	}
	if got := r.FIB().String(); got != want.String() {
		t.Fatalf("%s: FIB diverges from full recompute:\nincremental:\n%s\nfull:\n%s", label, got, want.String())
	}
	if err := checkIndex(r); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// convergedFig1 returns router A of a converged Fig. 1 domain.
func convergedFig1(t *testing.T) (*topo.Topology, *Router) {
	t.Helper()
	tp := topo.Fig1(topo.Fig1Opts{})
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	d.Start()
	if _, err := d.RunUntilConverged(sched.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	return tp, d.Router(tp.MustNode("A"))
}

// reissue returns l as its originator would re-originate it.
func reissue(l *LSA) *LSA {
	c := l.Clone()
	c.Header.Seq++
	return c
}

// TestPrefixLSARemoveReAddOneWindow is the Prefix LSA twin of
// TestRouterLSARemoveReAddOneWindow: the index is patched from the change
// log, so a flush and a re-origination inside one debounce window must
// leave one announcement, not none or two; a flush alone must take the
// route and the index entry away, and a later re-origination bring both
// back.
func TestPrefixLSARemoveReAddOneWindow(t *testing.T) {
	tp, a := convergedFig1(t)
	full0 := a.SPFFullRuns()
	k := Key{Type: TypePrefix, AdvRouter: NodeRouterID(tp.MustNode("R2")), LSID: 0}
	old, ok := a.db.Get(k)
	if !ok {
		t.Fatal("no loopback Prefix LSA for R2 at A")
	}
	before := a.FIB().String()

	a.dbRemove(k)
	a.dbInstall(reissue(old))
	a.computeRoutes()
	assertRouterMatchesFull(t, "flush + re-originate in one window", a)
	if a.FIB().String() != before {
		t.Fatal("an unchanged re-origination changed the FIB")
	}

	// Re-originated with other content: the prefix moves to a new metric.
	moved := reissue(old)
	moved.Metric += 7
	a.dbRemove(k)
	a.dbInstall(moved)
	a.computeRoutes()
	assertRouterMatchesFull(t, "flush + re-originate with a new metric", a)
	if r, _ := a.FIB().Get(old.Prefix); r.Distance == 0 || a.FIB().String() == before {
		t.Fatalf("metric change did not reach the FIB: %+v", r)
	}

	a.dbRemove(k)
	a.computeRoutes()
	assertRouterMatchesFull(t, "flush alone", a)
	if _, had := a.FIB().Get(old.Prefix); had {
		t.Fatal("route survived its only announcement")
	}
	if a.cache.lookup(old.Prefix) != nil {
		t.Fatal("index entry survived its only announcement")
	}

	a.dbInstall(reissue(old))
	a.computeRoutes()
	assertRouterMatchesFull(t, "re-originate in a later window", a)
	if a.FIB().String() != before {
		t.Fatal("re-origination did not restore the FIB")
	}
	if a.SPFFullRuns() != full0 {
		t.Fatalf("the delta pipeline fell back to %d full runs", a.SPFFullRuns()-full0)
	}
}

// TestFakeLSARemoveReAddOneWindow is the Fake LSA twin, plus the cases
// where the index cannot resolve an announcer to a graph slot: a fake
// whose AttachedTo router is not yet, and then no longer, in the cache.
func TestFakeLSARemoveReAddOneWindow(t *testing.T) {
	tp, a := convergedFig1(t)
	full0 := a.SPFFullRuns()
	r2 := NodeRouterID(tp.MustNode("R2"))
	r2Key := Key{Type: TypeRouter, AdvRouter: r2, LSID: 0}
	r2LSA, ok := a.db.Get(r2Key)
	if !ok {
		t.Fatal("no Router LSA for R2 at A")
	}
	target := tp.Prefixes()[0].Prefix
	fake := &LSA{
		Header:     Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 1, Seq: 1},
		Prefix:     target,
		AttachedTo: r2,
		ForwardVia: NodeRouterID(tp.MustNode("R3")),
	}
	k := fake.Header.Key()

	// Not yet: R2 leaves the cache, then the fake arrives attached to it.
	a.dbRemove(r2Key)
	a.computeRoutes()
	assertRouterMatchesFull(t, "R2 gone", a)
	a.dbInstall(fake)
	a.computeRoutes()
	assertRouterMatchesFull(t, "fake attached to a router not in the cache", a)

	a.dbInstall(reissue(r2LSA))
	a.computeRoutes()
	assertRouterMatchesFull(t, "R2 appears under the fake", a)
	withFake := a.FIB().String()

	// Flush + re-originate inside one window, same content then moved to
	// another prefix (the loopback of R2).
	cur, _ := a.db.Get(k)
	a.dbRemove(k)
	a.dbInstall(reissue(cur))
	a.computeRoutes()
	assertRouterMatchesFull(t, "fake flush + re-originate in one window", a)
	if a.FIB().String() != withFake {
		t.Fatal("an unchanged fake re-origination changed the FIB")
	}
	cur, _ = a.db.Get(k)
	moved := reissue(cur)
	moved.Prefix = LoopbackPrefix(tp.MustNode("R2"))
	a.dbRemove(k)
	a.dbInstall(moved)
	a.computeRoutes()
	assertRouterMatchesFull(t, "fake re-originated for another prefix", a)
	if e := a.cache.lookup(target); e == nil || len(a.cache.announcers(e, nil)) != len(tp.Prefixes()[0].Attachments) {
		t.Fatalf("the fake's old prefix kept or lost announcers: %+v", e)
	}

	// No longer: R2 leaves while the fake hangs off it, and the fake is
	// flushed while its router is away.
	cur, _ = a.db.Get(r2Key)
	a.dbRemove(r2Key)
	a.computeRoutes()
	assertRouterMatchesFull(t, "R2 gone from under the fake", a)
	a.dbRemove(k)
	a.computeRoutes()
	assertRouterMatchesFull(t, "fake flushed while its router is away", a)
	a.dbInstall(reissue(cur))
	a.computeRoutes()
	assertRouterMatchesFull(t, "R2 back, fake gone", a)
	if a.SPFFullRuns() != full0 {
		t.Fatalf("the delta pipeline fell back to %d full runs", a.SPFFullRuns()-full0)
	}
}

// spfBytes converges a four-router domain carrying extra prefixes, flips
// one link weight back and forth, and returns the bytes allocated inside
// the SPF runs the flips caused, and how many the delta pipeline served.
//
//	H - A - B
//	     \  |     B-C alternates between 3 and 1: at 3, B and C reach each
//	      - C     other via A.
//
// Every extra prefix is attached at H, and no router's path to H changes,
// so a flip touches two routes per router at most however many prefixes
// the domain carries.
func spfBytes(t *testing.T, extra int) (bytes, runs uint64) {
	t.Helper()
	tp := topo.New()
	h, a, b, c := tp.AddNode("H"), tp.AddNode("A"), tp.AddNode("B"), tp.AddNode("C")
	for _, pair := range [][2]topo.NodeID{{h, a}, {a, b}, {a, c}, {b, c}} {
		tp.AddLink(pair[0], pair[1], 1, topo.LinkOpts{Capacity: 10e6})
	}
	for i := 0; i < extra; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 32)
		tp.AddPrefix(p, fmt.Sprintf("p%d", i), topo.Attachment{Node: h})
	}
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	d.Start()
	flip := func(w int64) {
		t.Helper()
		if err := d.SetLinkWeight(b, c, w); err != nil {
			t.Fatal(err)
		}
		if _, err := d.RunUntilConverged(sched.Now() + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		if r, _ := d.Router(b).FIB().Get(LoopbackPrefix(c)); r.Distance != min(w, 2) {
			t.Fatalf("%d extra prefixes: B reaches C at distance %d with B-C at %d", extra, r.Distance, w)
		}
	}
	flip(1) // cold convergence
	flip(3) // and one flip to size the domain's SPF scratch and the spare trees
	flip(1)

	before := d.Stats()
	var ms runtime.MemStats
	for _, r := range d.Routers() {
		run := r.spf
		r.spf = event.Func(func() {
			runtime.ReadMemStats(&ms)
			start := ms.TotalAlloc
			run.Fire()
			runtime.ReadMemStats(&ms)
			bytes += ms.TotalAlloc - start
		})
	}
	for i := 0; i < 4; i++ {
		flip(3)
		flip(1)
	}
	after := d.Stats()
	if after.SPFFullRuns != before.SPFFullRuns {
		t.Fatalf("%d extra prefixes: %d full SPF runs, want none", extra, after.SPFFullRuns-before.SPFFullRuns)
	}
	assertFIBsMatchFull(t, fmt.Sprintf("%d extra prefixes", extra), d)
	return bytes, after.SPFIncrementalRuns - before.SPFIncrementalRuns
}

// TestIncrementalRunCostIndependentOfPrefixCount pins the delta pipeline's
// cost model: what an incremental SPF run allocates follows the change,
// not the number of prefixes in the LSDB. Rescanning the database per run,
// sizing the diff for the whole table or deep-copying the FIB each make
// the larger domain cost several times the smaller one.
func TestIncrementalRunCostIndependentOfPrefixCount(t *testing.T) {
	const p = 32
	small, runsSmall := spfBytes(t, p)
	large, runsLarge := spfBytes(t, 8*p)
	if runsSmall == 0 || runsSmall != runsLarge {
		t.Fatalf("incremental SPF runs: %d with %d prefixes, %d with %d", runsSmall, p, runsLarge, 8*p)
	}
	t.Logf("%d incremental runs: %d bytes with %d extra prefixes, %d with %d", runsSmall, small, p, large, 8*p)
	if float64(large) >= 1.5*float64(small) {
		t.Fatalf("SPF runs allocated %d bytes with %d prefixes and %d with %d: cost follows the LSDB, not the change",
			small, p, large, 8*p)
	}
}
