package scenarios

import (
	"encoding/json"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// TestFailoverInvariants runs every failover cell both ways (BFD vs
// SNMP-poll detection) and checks the 10x latency and stall-ratio
// invariants between them. The safety oracle watches both arms and a
// third, controller-off run of the cell, their twin: neither arm's
// installed forwarding may loop or drop where the twin's does not, and
// every arm is checked at each instant the schedule flips a link.
func TestFailoverInvariants(t *testing.T) {
	specs := FailoverSpecs()
	var cells, checks atomic.Int64
	t.Cleanup(func() {
		if n := checks.Load(); cells.Load() == int64(len(specs)) && n < failoverCheckFloor {
			t.Errorf("%d safety checks over the fast and slow arms, want >= %d", n, failoverCheckFloor)
		}
	})
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			failures, err := failureSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, w, err := runWatchedArms(spec, append(slices.Clip(failoverArms), arm{"twin", nil, false})...)
			if err != nil {
				t.Fatal(err)
			}
			c := &FailoverComparison{Spec: spec, Fast: r[0], Slow: r[1], Violations: FailoverViolations(spec, r[0], r[1])}
			cells.Add(1)
			for i := range 2 {
				checks.Add(int64(requireSafe(t, r[i], w[i], w[2])))
				for _, f := range failures {
					if !w[i].checkedWithin(f.At, 0) {
						t.Errorf("%s: no safety check at the link flip at %v", r[i].Scenario, f.At)
					}
				}
			}
			for _, v := range c.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				for _, r := range []*Report{c.Fast, c.Slow} {
					j, _ := json.MarshalIndent(r, "", "  ")
					t.Logf("%s report:\n%s", r.Scenario, j)
				}
			}
		})
	}
}

// TestFailoverBoundOverLiveLinks: each failover arm's LP bound is θ* over
// the links live at the settle start, for the demands the controller
// knew then; θ* over the whole topology, which still routes over the
// failed links, is lower, so a bound solved there fails the test.
func TestFailoverBoundOverLiveLinks(t *testing.T) {
	t.Parallel()
	for _, spec := range FailoverSpecs() {
		failures, err := failureSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range failoverArms {
			s := spec
			if a.edit != nil {
				a.edit(&s)
			}
			var tp *topo.Topology
			var demands []topo.Demand
			rep, err := RunWatched(s, a.withCtrl, func(sim *controller.Sim) {
				tp = sim.Topo
				sim.Sched.At(s.settleStart(), func() { demands = sim.Ctrl.Demands() })
			})
			if err != nil {
				t.Fatal(err)
			}
			var failed []topo.LinkID
			for _, f := range failures {
				if !f.Up && f.At <= s.settleStart() {
					l, _ := tp.FindLink(tp.MustNode(f.A), tp.MustNode(f.B))
					failed = append(failed, l.ID)
				}
			}
			live, err := te.SolveMinMax(tp.CloneWithoutLinks(failed...), demands)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := te.SolveMinMax(tp, demands)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LPOptimum != live.MaxUtilisation || whole.MaxUtilisation >= live.MaxUtilisation {
				t.Errorf("%s: lp_optimum %v, want θ* %v over the links live at %v (%v over all links)",
					rep.Scenario, rep.LPOptimum, live.MaxUtilisation, s.settleStart(), whole.MaxUtilisation)
			}
		}
	}
}

// TestFailoverWindowOverSeeds runs the fast (BFD) arm of every failover
// cell at 16 seeds, which redraws every session's hello jitter, and holds
// each run to the failover window: the first commit lands one detection
// time after the last hello heard before the failure, so within (100,
// 150] ms of it (detection time 150 ms less one 50 ms tx interval, up to
// the detection time); no viewer stalls in the window; BFD announces one
// down per failed link; and the safety oracle, judging the run against
// its controller-off twin, finds nothing at any instant.
func TestFailoverWindowOverSeeds(t *testing.T) {
	const seeds = 16
	const fastest, slowest = 100 * time.Millisecond, 150 * time.Millisecond
	for _, spec := range FailoverSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			failures, err := failureSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, f := range failures {
				if !f.Up {
					failed++
				}
			}
			for seed := spec.Seed; seed < spec.Seed+seeds; seed++ {
				s := spec
				s.Seed = seed
				r, w, err := runWatchedArms(s, arm{"fast", nil, true}, arm{"twin", nil, false})
				if err != nil {
					t.Fatal(err)
				}
				fast := r[0]
				if fast.FailoverLatency <= fastest || fast.FailoverLatency > slowest {
					t.Errorf("seed %d: failover latency %v, want within (%v, %v]", seed, fast.FailoverLatency, fastest, slowest)
				}
				if fast.FailoverStallSeconds != 0 {
					t.Errorf("seed %d: %v s of stalls in the failover window, want none", seed, fast.FailoverStallSeconds)
				}
				if fast.BFDLinkDowns != uint64(failed) {
					t.Errorf("seed %d: %d BFD downs, want one per failed link (%d)", seed, fast.BFDLinkDowns, failed)
				}
				requireSafe(t, fast, w[0], w[1])
			}
		})
	}
}
