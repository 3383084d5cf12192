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

// TestPollAllocations: a steady-state poll allocates nothing per counter
// or per request — the Report's Loads when a listener is set, and exactly
// as many objects for 96 links as for 64, both being two requests.
// Without a listener the poll builds no report and allocates nothing.
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
	if at64 > 1 {
		t.Fatalf("a 64-link poll allocates %v objects, budget 1 (the report's loads)", at64)
	}
	if at96 != at64 {
		t.Fatalf("a poll allocates per counter: %v objects for 64 links, %v for 96", at64, at96)
	}
	quiet := measure(64, false)
	if quiet > 0 {
		t.Fatalf("a 64-link poll without a listener allocates %v objects, budget 0", quiet)
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

// TestPreparedPollAllocations: on fat-tree k=8 (512 router links, eleven
// GETs) and k=16 (4096 router links, 86 GETs, the largest scaling cell's
// poll) over the IF-MIB of a live network, a poll after the first
// allocates nothing, the agent's response included: it is appended to
// the client's pooled scratch, and the agent keeps every list of the
// poll resolved. Preparing the watch list's poll (NewPoller) allocates
// per call, not per link or per request: as many objects at k=8 and
// k=16 as at k=4 (two GETs). A poll after a Register (which drops the
// agent's resolved lists) resolves each request's list again at a fixed
// cost per request, not per link (held at k=4 and k=8). ~0.3 s.
func TestPreparedPollAllocations(t *testing.T) {
	const (
		pollBudget    = 0
		prepareBudget = 9 // the Poller, its four per-link slices, the CounterPoll and its three
		resolveBudget = 3 // per request: the list's key, its resolved varbinds and their names
	)
	measure := func(k int) (poll, prepare, resolve float64, requests int) {
		tp := topo.FatTree(topo.FatTreeOpts{K: k, Capacity: 10e6})
		sched := event.NewScheduler()
		net := netsim.New(tp, sched, time.Second)
		mib := snmp.NewMIB()
		snmp.BindIFMIB(mib, net, topo.NoNode)
		links := WatchAllLinks(tp)
		client := snmp.NewClient(snmp.DirectTransport{Agent: snmp.NewAgent("public", mib)}, "public")
		p := NewPoller(client, sched, Config{}, links)
		p.Start()
		sched.RunUntil(3 * pollInterval) // seeded, lists resolved, scratch grown
		poll = testing.AllocsPerRun(100, p.poll)
		prepare = testing.AllocsPerRun(20, func() { NewPoller(client, sched, Config{}, links) })
		extra := snmp.OIDIfHCOutOctets.Append(1 << 20)
		zero := func() snmp.Value { return snmp.Counter64Value(0) }
		mib.Register(extra, zero)
		resolve = testing.AllocsPerRun(20, func() {
			mib.Register(extra, zero) // replaces: the MIB does not grow, its resolved lists go
			p.poll()
		})
		if len(p.Errors) > 0 {
			t.Fatalf("fat-tree k=%d: poll errors %v", k, p.Errors)
		}
		return poll, prepare, resolve, (len(links) + 47) / 48
	}
	var prepare4 float64
	for _, k := range []int{4, 8, 16} {
		poll, prepare, resolve, requests := measure(k)
		if k == 4 {
			prepare4 = prepare
		}
		t.Logf("fat-tree k=%d: poll %v objects, prepare %v, re-resolving poll %v (%d requests)", k, poll, prepare, resolve, requests)
		if poll > pollBudget {
			t.Fatalf("a steady poll allocates %v objects on fat-tree k=%d, budget %d", poll, k, pollBudget)
		}
		if prepare > prepareBudget || prepare != prepare4 {
			t.Fatalf("NewPoller allocates %v objects on fat-tree k=%d and %v on k=4, budget %d at both", prepare, k, prepare4, prepareBudget)
		}
		// At k=16 the re-resolving poll is logged, not held: the
		// registration clears the table's map, which re-seeds its hash,
		// and now and then the map regrows mid-measurement (258 to 261
		// objects measured for 86 requests).
		if k <= 8 && resolve > resolveBudget*float64(requests) {
			t.Fatalf("a poll after a Register allocates %v objects for %d requests on fat-tree k=%d; budget %d per request",
				resolve, requests, k, resolveBudget)
		}
	}
}
