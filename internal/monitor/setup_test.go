package monitor

import (
	"reflect"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/topo"
)

// watchZoo is the matrix and failover topology zoo, built as the scenario
// harness builds it (which this package cannot import), plus fat-tree
// k=8, Figure 1 with its stub hosts, a topology with an uncapacitated
// router link, and one of hosts only.
func watchZoo() map[string]*topo.Topology {
	const capacity = 10e6
	mixed := topo.Ring(topo.RingOpts{N: 5, Capacity: capacity})
	mixed.AddLink(0, 2, 1, topo.LinkOpts{}) // a chord without capacity
	hosts := topo.New()
	hosts.AddLink(hosts.AddHost("h1"), hosts.AddHost("h2"), 1, topo.LinkOpts{Capacity: capacity})
	return map[string]*topo.Topology{
		"fig1":       topo.Fig1(topo.Fig1Opts{}),
		"fig1+hosts": topo.Fig1(topo.Fig1Opts{WithHosts: true}),
		"abilene":    topo.Abilene(capacity, time.Millisecond),
		"fattree4":   topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: capacity, MaxWeight: 3, Seed: 2}),
		"fattree8":   topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: capacity, MaxWeight: 3, Seed: 2}),
		"ring9":      topo.Ring(topo.RingOpts{N: 9, Capacity: capacity}),
		"waxman16":   topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: capacity, MaxWeight: 5, Seed: 13}),
		"random12": topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: capacity, Seed: 3,
		}),
		"ring5+uncapacitated": mixed,
		"hosts-only":          hosts,
	}
}

// TestWatchAllLinksMatchesReference: WatchAllLinks and refWatchAllLinks
// give deep-equal watch lists over the zoo, and a topology of hosts only
// gives none (nil). Every carved OID is capped, so appending to one
// cannot write into its neighbour. ~0.01 s.
func TestWatchAllLinksMatchesReference(t *testing.T) {
	for name, tp := range watchZoo() {
		got, want := WatchAllLinks(tp), refWatchAllLinks(tp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: watch list\n%+v\nreference\n%+v", name, got, want)
		}
		for _, wl := range got {
			if cap(wl.OID) != len(wl.OID) {
				t.Fatalf("%s: %s's OID has room past its end (len %d, cap %d)", name, wl.Name, len(wl.OID), cap(wl.OID))
			}
		}
		if name == "hosts-only" && got != nil {
			t.Fatalf("%s: watch list %+v, want nil", name, got)
		}
	}
}
