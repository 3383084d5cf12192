//go:build !race

package monitor

// Not built under the race detector: there sync.Pool drops a quarter of
// its Puts at random, so how many exchanges a poll allocates says nothing.

import "testing"

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
