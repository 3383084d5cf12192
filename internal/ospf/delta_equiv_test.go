package ospf

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// The delta pipeline's contract: after any sequence of topology and lie
// mutations, every router's incrementally maintained FIB is byte-identical
// to a from-scratch recompute of its LSDB (buildFullState), and its
// persistent announcer index equal to a from-scratch scan of the LSDB
// (collectAnnouncers, index_test.go). 50 seeded random mutation sequences
// sweep the topology zoo with link failures, heals, weight changes, and
// lie installs/withdraws.

// equivTopology builds the zoo member for one sequence.
func equivTopology(i int) (*topo.Topology, string) {
	switch i % 6 {
	case 0:
		return topo.Fig1(topo.Fig1Opts{}), "fig1"
	case 1:
		return topo.Abilene(10e6, time.Millisecond), "abilene"
	case 2:
		return topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: int64(i)}), "fattree4"
	case 3:
		return topo.Ring(topo.RingOpts{N: 9, Capacity: 10e6, Chords: 2, Seed: int64(i)}), "ring9"
	case 4:
		return topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: 10e6, MaxWeight: 5, Seed: int64(i)}), "waxman16"
	default:
		return topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: int64(i),
		}), "random12"
	}
}

// routerLinks lists symmetric links between two routers (one direction).
func routerLinks(tp *topo.Topology) []topo.Link {
	var out []topo.Link
	for _, l := range tp.Links() {
		if tp.Node(l.From).Host || tp.Node(l.To).Host {
			continue
		}
		if l.Reverse != topo.NoLink && l.Reverse < l.ID {
			continue // one direction per symmetric pair
		}
		out = append(out, l)
	}
	return out
}

// buildFullState computes a fresh cache and a from-scratch table directly
// from the LSDB: the ground truth the delta pipeline must reproduce. ok is
// false before the router originated its own Router LSA. It leaves the
// router's cache and FIB alone, so the equivalence tests use it as the
// reference oracle.
func (r *Router) buildFullState() (c *spfCache, table *fib.Table, ok bool) {
	return r.fullState(r.buildCache())
}

func assertFIBsMatchFull(t *testing.T, label string, d *Domain) {
	t.Helper()
	for n, r := range d.Routers() {
		_, want, ok := r.buildFullState()
		if !ok {
			continue
		}
		if got := r.FIB().String(); got != want.String() {
			t.Fatalf("%s: router %s FIB diverges from full recompute:\nincremental:\n%s\nfull:\n%s",
				label, d.Topology().Name(n), got, want.String())
		}
	}
}

// TestRouterLSARemoveReAddOneWindow regression-tests the cache against a
// Router LSA that is flushed and re-originated within one SPF debounce
// window: the change log then carries a removal whose final-database view
// already holds the re-added instance, which must not leave a live
// phantom copy of the router on the tombstoned slot.
func TestRouterLSARemoveReAddOneWindow(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	d.Start()
	if _, err := d.RunUntilConverged(sched.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	a := d.Router(tp.MustNode("A"))
	victim := NodeRouterID(tp.MustNode("R2"))
	k := Key{Type: TypeRouter, AdvRouter: victim, LSID: 0}
	old, ok := a.db.Get(k)
	if !ok {
		t.Fatal("no Router LSA for R2 at A")
	}
	// Remove and re-add before the debounced SPF fires.
	a.dbRemove(k)
	readd := old.Clone()
	readd.Header.Seq++
	a.dbInstall(readd)
	a.computeRoutes()
	// A later weight change flushes out any phantom slot: with a live
	// duplicate of R2 in the cached graph, the stale copy would keep
	// offering the old cheaper path.
	if err := d.SetLinkWeight(tp.MustNode("B"), tp.MustNode("R2"), 9); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(sched.Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	assertFIBsMatchFull(t, "after remove+re-add and reweight", d)
}

func TestDeltaPipelineEquivalence(t *testing.T) {
	var totalInc, totalFull uint64
	for seq := 0; seq < 50; seq++ {
		tp, name := equivTopology(seq)
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		sched := event.NewScheduler()
		d := NewDomain(tp, sched, Config{})
		d.Start()
		if _, err := d.RunUntilConverged(sched.Now() + 120*time.Second); err != nil {
			t.Fatalf("seq %d (%s): %v", seq, name, err)
		}
		assertFIBsMatchFull(t, fmt.Sprintf("seq %d (%s) after start", seq, name), d)
		assertIndexesMatchOracle(t, fmt.Sprintf("seq %d (%s) after start", seq, name), d)

		links := routerLinks(tp)
		prefixes := tp.Prefixes()
		// Routers eligible as injection points and lie attachments.
		var routers []topo.NodeID
		for _, n := range tp.Nodes() {
			if !n.Host {
				routers = append(routers, n.ID)
			}
		}
		var downLinks []topo.Link
		type liveLie struct {
			lsa *LSA
			at  topo.NodeID
		}
		var lies []liveLie
		lsid := uint32(1)

		for step := 0; step < 8; step++ {
			label := fmt.Sprintf("seq %d (%s) step %d", seq, name, step)
			switch op := rng.Intn(5); {
			case op == 0: // weight change
				l := links[rng.Intn(len(links))]
				if err := d.SetLinkWeight(l.From, l.To, 1+rng.Int63n(9)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			case op == 1 && len(downLinks) < 2: // link failure
				l := links[rng.Intn(len(links))]
				if err := d.SetLinkState(l.From, l.To, false); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				downLinks = append(downLinks, l)
			case op == 2 && len(downLinks) > 0: // heal
				l := downLinks[len(downLinks)-1]
				downLinks = downLinks[:len(downLinks)-1]
				if err := d.SetLinkState(l.From, l.To, true); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			case op == 3 || len(lies) == 0: // lie install
				attach := routers[rng.Intn(len(routers))]
				nbrs := d.Router(attach).Neighbors()
				if len(nbrs) == 0 {
					continue
				}
				via := nbrs[rng.Intn(len(nbrs))]
				p := prefixes[rng.Intn(len(prefixes))]
				lsa := &LSA{
					Header:     Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: lsid, Seq: 1},
					Prefix:     p.Prefix,
					Metric:     uint32(rng.Intn(4)),
					AttachedTo: NodeRouterID(attach),
					AttachCost: uint32(rng.Intn(3)),
					ForwardVia: via,
				}
				lsid++
				at := routers[rng.Intn(len(routers))]
				if err := d.Router(at).OriginateForeign(lsa.Clone()); err != nil {
					t.Fatalf("%s: inject: %v", label, err)
				}
				lies = append(lies, liveLie{lsa: lsa, at: at})
			default: // lie withdraw
				i := rng.Intn(len(lies))
				lie := lies[i]
				lies = append(lies[:i], lies[i+1:]...)
				w := lie.lsa.Clone()
				w.Header.Seq++
				w.Header.Age = MaxAgeSeconds
				if err := d.Router(lie.at).OriginateForeign(w); err != nil {
					t.Fatalf("%s: withdraw: %v", label, err)
				}
			}
			if _, err := d.RunUntilConverged(sched.Now() + 120*time.Second); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertFIBsMatchFull(t, label, d)
			assertIndexesMatchOracle(t, label, d)
		}
		s := d.Stats()
		totalInc += s.SPFIncrementalRuns
		totalFull += s.SPFFullRuns
	}
	if totalInc == 0 {
		t.Fatal("the incremental path was never exercised")
	}
	t.Logf("SPF runs: %d incremental, %d full", totalInc, totalFull)
}
