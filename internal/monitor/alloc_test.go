//go:build !race

package monitor

// Not built under the race detector: there sync.Pool drops a quarter of
// its Puts at random, so how many exchanges a poll allocates says nothing,
// and the instrumented build allocates objects the plain one does not.

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
)

// TestPollAllocations: a steady-state poll costs its requests, not its
// counters — at most 4 objects per GET (the agent's response buffer is
// the one the API demands) plus the Report's Loads when a listener is
// set, and exactly as many for 96 links as for 64, both being two
// requests. Without a listener the poll builds no report: at most 4
// objects per GET, and fewer than with one.
func TestPollAllocations(t *testing.T) {
	measure := func(n int, listen bool) float64 {
		p, sched := syntheticPoller(n, nil)
		reports := 0
		if listen {
			p.OnReport = func(r Report) {
				if len(r.Loads) != n {
					t.Fatalf("report of %d loads, want %d", len(r.Loads), n)
				}
				reports++
			}
		}
		p.Start()
		sched.RunUntil(3 * pollInterval) // seeded, scratch grown
		allocs := testing.AllocsPerRun(200, p.poll)
		if len(p.Errors) > 0 || listen && reports < 200 {
			t.Fatalf("%d reports, errors %v", reports, p.Errors)
		}
		return allocs
	}
	at64, at96 := measure(64, true), measure(96, true)
	const requests = 2
	if at64 > 4*requests+1 {
		t.Fatalf("a 64-link poll allocates %v objects, budget %d", at64, 4*requests+1)
	}
	if at96 != at64 {
		t.Fatalf("a poll allocates per counter: %v objects for 64 links, %v for 96", at64, at96)
	}
	quiet := measure(64, false)
	if quiet > 4*requests || quiet >= at64 {
		t.Fatalf("a 64-link poll without a listener allocates %v objects, budget %d and under the %v with one", quiet, 4*requests, at64)
	}
	t.Logf("64-link poll: %v objects, %v without a listener", at64, quiet)
}

// TestBindIFMIBAllocatesPerCall: the SNMP plane's set-up allocates per
// call, not per link. Binding the IF-MIB into a fresh MIB costs the MIB,
// its two presized tables, the rows and the OID array (5 objects), and a
// watch list its entries, OID array and name string (3), as many on
// fat-tree k=8 (512 router links) as on k=4 (64). ~0.01 s.
func TestBindIFMIBAllocatesPerCall(t *testing.T) {
	const bindBudget, watchBudget = 5, 3
	measure := func(k int) (bind, watch float64) {
		tp := topo.FatTree(topo.FatTreeOpts{K: k, Capacity: 10e6})
		net := netsim.New(tp, event.NewScheduler(), time.Second)
		bind = testing.AllocsPerRun(20, func() { snmp.BindIFMIB(snmp.NewMIB(), net, topo.NoNode) })
		watch = testing.AllocsPerRun(20, func() { WatchAllLinks(tp) })
		return bind, watch
	}
	bind4, watch4 := measure(4)
	bind8, watch8 := measure(8)
	t.Logf("BindIFMIB %v objects at k=4, %v at k=8; WatchAllLinks %v and %v", bind4, bind8, watch4, watch8)
	if bind4 > bindBudget || watch4 > watchBudget {
		t.Fatalf("on fat-tree k=4, BindIFMIB allocates %v objects (budget %d), WatchAllLinks %v (budget %d)",
			bind4, bindBudget, watch4, watchBudget)
	}
	if bind8 != bind4 || watch8 != watch4 {
		t.Fatalf("set-up allocates per link: BindIFMIB %v objects at k=4, %v at k=8; WatchAllLinks %v and %v",
			bind4, bind8, watch4, watch8)
	}
}
