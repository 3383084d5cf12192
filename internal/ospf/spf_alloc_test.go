package ospf

import (
	"fmt"
	"net/netip"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// spfObjectsBudget bounds the heap objects of one incremental SPF run on a
// fat-tree k=8 weight flip, averaged over the 640 runs of four flips and
// their restores. Measured 9.3 per run (5 967 objects) since a route's
// next hops are built in the cache's scratch and copied once (10.6 when
// they grew by append, 15.8 before the boot image); the delta pipeline
// that allocated a fresh tree, edge lists, maps and announcer slices per
// run made 128.2. A fresh tree alone (Dist, preds, CSR and touched list
// per patch) makes 18.8 and trips the guard.
const spfObjectsBudget = 12

// TestIncrementalRunAllocations is the absolute twin of
// TestIncrementalRunCostIndependentOfPrefixCount (index_test.go): on the
// igp-churn fabric, a run allocates what it hands on — the predecessor
// lists its patch rewrote, the changed routes, the diff and the new table —
// and none of its working state: the tree it patches into, the replay's
// edge lists, the announcer resolution, the touched set and the domain's
// SPF scratch are reused.
func TestIncrementalRunAllocations(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	d.Start()
	var core topo.Link
	for _, l := range tp.Links() {
		if !tp.Node(l.From).Host && !tp.Node(l.To).Host {
			core = l
			break
		}
	}
	flip := func(w int64) {
		t.Helper()
		if err := d.SetLinkWeight(core.From, core.To, w); err != nil {
			t.Fatal(err)
		}
		if _, err := d.RunUntilConverged(sched.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	flip(core.Weight)        // cold convergence
	for i := 0; i < 2; i++ { // every router's spare tree and the scratch in place
		flip(core.Weight + 1)
		flip(core.Weight)
	}

	before := d.Stats()
	var ms runtime.MemStats
	var objects uint64
	for _, r := range d.Routers() {
		run := r.spf
		r.spf = event.Func(func() {
			runtime.ReadMemStats(&ms)
			start := ms.Mallocs
			run.Fire()
			runtime.ReadMemStats(&ms)
			objects += ms.Mallocs - start
		})
	}
	for i := 0; i < 4; i++ {
		flip(core.Weight + 1)
		flip(core.Weight)
	}
	after := d.Stats()
	if after.SPFFullRuns != before.SPFFullRuns {
		t.Fatalf("%d full SPF runs, want none", after.SPFFullRuns-before.SPFFullRuns)
	}
	assertFIBsMatchFull(t, "after the flips", d)
	runs := after.SPFIncrementalRuns - before.SPFIncrementalRuns
	perRun := float64(objects) / float64(runs)
	t.Logf("%d incremental runs, %d objects, %.2f per run", runs, objects, perRun)
	if perRun > spfObjectsBudget {
		t.Fatalf("an incremental SPF run allocates %.2f objects, over the budget of %v", perRun, spfObjectsBudget)
	}
}

// firstRunObjects boots the igp-churn fabric with scale times its
// prefixes (a loopback per router and the fabric's own prefix; the extra
// ones are /32s attached round robin to the routers) and returns the
// prefix count, the heap objects one router's first SPF run allocates,
// averaged over every router, and the converged domain. Every first run
// clones the component's boot image.
func firstRunObjects(t *testing.T, scale int) (int, float64, *Domain) {
	t.Helper()
	tp := topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	var routers []topo.NodeID
	for _, n := range tp.Nodes() {
		if !n.Host {
			routers = append(routers, n.ID)
		}
	}
	prefixes := len(routers) + len(tp.Prefixes())
	for i := 0; i < (scale-1)*prefixes; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 230, byte(i >> 8), byte(i)}), 32)
		tp.AddPrefix(p, fmt.Sprintf("extra%d", i), topo.Attachment{Node: routers[i%len(routers)], Cost: 1})
	}
	sched := event.NewScheduler()
	d := NewDomain(tp, sched, Config{})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	var objects uint64
	for _, r := range d.Routers() { // before Start, which schedules the runs
		run := r.spf
		r.spf = event.Func(func() {
			runtime.ReadMemStats(&ms)
			start := ms.Mallocs
			run.Fire()
			runtime.ReadMemStats(&ms)
			objects += ms.Mallocs - start
		})
	}
	d.Start()
	for _, r := range d.Routers() {
		if r.image == nil {
			t.Fatalf("router %d holds no boot image after Start", r.id)
		}
	}
	if _, err := d.RunUntilConverged(time.Minute); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if n := uint64(len(d.Routers())); st.SPFFullRuns != n || st.SPFIncrementalRuns != 0 {
		t.Fatalf("%d full and %d incremental runs, want one first run for each of %d routers", st.SPFFullRuns, st.SPFIncrementalRuns, n)
	}
	return scale * prefixes, float64(objects) / float64(st.SPFFullRuns), d
}

// firstRunGrowth bounds how many more heap objects a first run allocates
// when the domain's prefix count doubles (81 to 162 on fat-tree k=8).
// Measured under 0.5 either way: the next-hop arena may take one chunk
// more or fewer. With a heap object per route (a next-hop slice, or a
// trie node and value per Install) the growth is at least 81.
const firstRunGrowth = 3

// firstRunObjectsBudget bounds the heap objects of one first run on the
// igp-churn fabric (81 prefixes). Measured 22.5 since the run's tree is
// carved from one predecessor array and the clone shares the image's slot
// indexes until it writes them; 139.7 when Compute grew one predecessor
// slice per node and every clone copied both indexes.
const firstRunObjectsBudget = 26

// TestFirstRunAllocations is the first-run twin of
// TestIncrementalRunAllocations: a router's first SPF run, which clones
// its component's boot image and builds its whole table, allocates per
// router, not per route or per node. Its trie comes from the table's
// reservation, its routes' next hops from a few shared chunks, its tree
// from one predecessor array, and its prefix entries and slot indexes stay
// the image's, so a run stays within firstRunObjectsBudget and doubling
// the prefixes leaves it within firstRunGrowth. Every next-hop slice a first run stores is
// capped at its length, so no append to one route's next hops reaches
// another's.
func TestFirstRunAllocations(t *testing.T) {
	n, base, _ := firstRunObjects(t, 1)
	n2, doubled, d := firstRunObjects(t, 2)
	t.Logf("a first run allocates %.2f objects with %d prefixes, %.2f with %d", base, n, doubled, n2)
	if base > firstRunObjectsBudget {
		t.Fatalf("a first run allocates %.2f objects, over the budget of %v", base, firstRunObjectsBudget)
	}
	if doubled-base > firstRunGrowth {
		t.Fatalf("doubling the prefixes grows a first run from %.2f to %.2f objects, over the bound of %v", base, doubled, firstRunGrowth)
	}
	assertFIBsMatchFull(t, "after the first runs", d)
	for _, r := range d.Routers() {
		for _, rt := range r.FIB().Routes() {
			if cap(rt.NextHops) != len(rt.NextHops) {
				t.Fatalf("router %d: the route to %v keeps %d next hops in a slice of cap %d", r.id, rt.Prefix, len(rt.NextHops), cap(rt.NextHops))
			}
		}
	}
}
