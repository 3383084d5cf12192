package video

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

// fanRig is an ECMP fan: router a splits the prefix behind b over m1 and
// m2, and each m->b link is a bottleneck of the given capacity.
type fanRig struct {
	t     *testing.T
	tp    *topo.Topology
	sched *event.Scheduler
	net   *netsim.Network
	pool  *SessionPool
	pairs []sessionPair
}

// sessionPair is one flow watched twice: by a pooled session and by the
// standalone reference.
type sessionPair struct {
	flow   netsim.FlowID
	pooled *SimSession
	solo   *soloSession
}

var fanPrefix = netip.MustParsePrefix("10.100.0.0/16")

func newFanRig(t *testing.T, capacity float64) *fanRig {
	t.Helper()
	tp := topo.New()
	a, m1, m2, b := tp.AddNode("a"), tp.AddNode("m1"), tp.AddNode("m2"), tp.AddNode("b")
	tp.AddLink(a, m1, 1, topo.LinkOpts{})
	tp.AddLink(a, m2, 1, topo.LinkOpts{})
	tp.AddLink(m1, b, 1, topo.LinkOpts{Capacity: capacity})
	tp.AddLink(m2, b, 1, topo.LinkOpts{Capacity: capacity})
	tp.AddPrefix(fanPrefix, "p", topo.Attachment{Node: b})
	r := &fanRig{t: t, tp: tp, sched: event.NewScheduler()}
	r.net = netsim.New(tp, r.sched, time.Second)
	r.route("a", "m1", "m2")
	r.route("m1", "b")
	r.route("m2", "b")
	tb := fib.NewTable(b)
	if err := tb.Install(fib.Route{Prefix: fanPrefix, Local: true}); err != nil {
		t.Fatal(err)
	}
	r.net.SetTable(b, tb)
	r.pool = NewSessionPool(r.sched, r.net, 0)
	return r
}

// route installs at router from a route to the prefix over the given next
// hops, replacing the one it had.
func (r *fanRig) route(from string, via ...string) {
	r.t.Helper()
	n := r.tp.MustNode(from)
	route := fib.Route{Prefix: fanPrefix}
	for _, v := range via {
		l, _ := r.tp.FindLink(n, r.tp.MustNode(v))
		route.NextHops = append(route.NextHops, fib.NextHop{Node: l.To, Link: l.ID, Weight: 1})
	}
	tb := fib.NewTable(n)
	if err := tb.Install(route); err != nil {
		r.t.Fatal(err)
	}
	r.net.SetTable(n, tb)
}

// join starts a flow now and attaches it to the pool and to a standalone
// reference session.
func (r *fanRig) join(bitrate float64) sessionPair {
	key := fib.FlowKey{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.100.0.1"),
		SrcPort: uint16(1000 + len(r.pairs)), DstPort: 8080, Proto: 6}
	id := r.net.AddFlow(r.tp.MustNode("a"), key, bitrate)
	p := sessionPair{id, r.pool.Attach(id, bitrate), newSoloSession(r.sched, r.net, id, bitrate, 0)}
	r.pairs = append(r.pairs, p)
	return p
}

func (r *fanRig) joinN(n int, bitrates ...float64) {
	for i := 0; i < n; i++ {
		r.join(bitrates[i%len(bitrates)])
	}
}

// TestSessionPoolMatchesStandaloneSessions drives every flow of an ECMP
// fan through a SessionPool (one batched read per tick, one player per
// cohort of sessions in lockstep) and through a standalone reference
// session (its own player, ticker and read), and requires every session's
// QoE to be identical through congestion, a link failure, stops, a
// finished flow and joiners on a tick instant. Each case also bounds the
// cohorts the pool ends with, well below one per session, so a pool that
// stopped sharing players fails too.
func TestSessionPoolMatchesStandaloneSessions(t *testing.T) {
	for _, tc := range []struct {
		name       string
		capacity   float64 // per m->b bottleneck, bit/s
		run        func(r *fanRig)
		maxCohorts int
		stalls     bool // someone must stall, or the comparison shows nothing
	}{{
		// 24 viewers at two bitrates, interleaved, joining at one
		// instant: a cohort per bitrate, split by the ECMP hash into one
		// per (bitrate, path), each path's 4 Mbit/s under 12 viewers.
		name: "same-instant joins over an ECMP fan at two bitrates", capacity: 4e6,
		run: func(r *fanRig) {
			r.sched.RunUntil(time.Second)
			r.joinN(24, 500e3, 800e3)
			if got := len(r.pool.cohorts); got != 2 {
				r.t.Fatalf("24 same-instant joins at two bitrates formed %d cohorts, want 2", got)
			}
			r.sched.RunUntil(30 * time.Second)
		},
		maxCohorts: 4, stalls: true,
	}, {
		// One cohort plays smoothly on both paths until m1's uplink
		// fails: its side is blocked, then rerouted onto m2, which cannot
		// carry everybody.
		name: "a link failure that moves part of a cohort", capacity: 8e6,
		run: func(r *fanRig) {
			r.sched.RunUntil(time.Second)
			r.joinN(24, 500e3)
			r.sched.RunUntil(10 * time.Second)
			if got := len(r.pool.cohorts); got != 1 {
				r.t.Fatalf("24 viewers in lockstep on two uncongested paths hold %d cohorts, want 1", got)
			}
			a, m1 := r.tp.MustNode("a"), r.tp.MustNode("m1")
			if err := r.net.SetLinkState(a, m1, false); err != nil {
				r.t.Fatal(err)
			}
			r.sched.RunUntil(12 * time.Second)
			r.route("a", "m2")
			r.sched.RunUntil(30 * time.Second)
			if got := len(r.pool.cohorts); got < 2 {
				r.t.Fatalf("the failure moved half the viewers and the pool still holds %d cohort", got)
			}
		},
		maxCohorts: 2, stalls: true,
	}, {
		// A viewer leaves a shared cohort, another flow finishes: the
		// leaver's QoE freezes, the finished one plays out uncredited,
		// and the rest of the cohort plays on.
		name: "Stop of one member of a shared cohort", capacity: 2e6,
		run: func(r *fanRig) {
			r.sched.RunUntil(time.Second)
			r.joinN(16, 500e3)
			r.sched.RunUntil(10 * time.Second)
			left, sharing := r.pairs[3], 0
			for _, p := range r.pairs {
				if p.pooled.Player == left.pooled.Player {
					sharing++
				}
			}
			if sharing < 2 {
				r.t.Fatal("the leaver shares its player with nobody: nothing to unshare")
			}
			left.pooled.Stop()
			left.solo.Stop()
			left.pooled.Stop() // twice is once
			if got := r.pool.Len(); got != 15 {
				r.t.Fatalf("pool ticks %d sessions right after one of 16 stopped, want 15", got)
			}
			r.net.RemoveFlow(r.pairs[0].flow)
			r.sched.RunUntil(20 * time.Second)
			if got := r.pool.Len(); got != 15 {
				r.t.Fatalf("pool ticks %d sessions after one stopped and one flow finished, want 15", got)
			}
			r.sched.RunUntil(30 * time.Second)
		},
		maxCohorts: 3, stalls: true,
	}, {
		// Late joiners at the 10 s tick instant: one attached before the
		// pool's tick at that instant (credited by it), one after it (so
		// it cannot join the credited cohort).
		name: "a late joiner on a tick instant", capacity: 3e6,
		run: func(r *fanRig) {
			var before, after sessionPair
			r.sched.At(10*time.Second, func() { before = r.join(500e3) })
			r.joinN(8, 500e3)
			r.sched.RunUntil(10 * time.Second)
			if c := before.pooled.cohort; !c.ticked || c.lastAt != 10*time.Second {
				r.t.Fatalf("the joiner attached before the 10 s tick was not credited by it (ticked %v at %v)", c.ticked, c.lastAt)
			}
			after = r.join(500e3)
			if after.pooled.cohort == before.pooled.cohort {
				r.t.Fatal("a joiner after the 10 s tick joined the cohort that tick credited")
			}
			if next := r.join(500e3); next.pooled.Player != after.pooled.Player {
				r.t.Fatal("two joiners after the tick, at one instant and bitrate, do not share a player")
			}
			r.sched.RunUntil(30 * time.Second)
		},
		maxCohorts: 5, stalls: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFanRig(t, tc.capacity)
			tc.run(r)
			stalled := false
			for i, p := range r.pairs {
				if p.pooled.QoE() != p.solo.QoE() {
					t.Fatalf("session %d: pooled %+v, standalone %+v", i, p.pooled.QoE(), p.solo.QoE())
				}
				stalled = stalled || p.pooled.QoE().Stalls > 0
			}
			if tc.stalls && !stalled {
				t.Fatal("nobody stalled: the link is not congested and the comparison shows nothing")
			}
			t.Logf("%d sessions in %d cohorts", len(r.pairs), len(r.pool.cohorts))
			if got := len(r.pool.cohorts); got > tc.maxCohorts {
				t.Fatalf("%d sessions in %d cohorts, want at most %d", len(r.pairs), got, tc.maxCohorts)
			}
		})
	}
}

// mallocsDuring counts heap objects allocated while f runs once.
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSessionPoolAllocations: a lone session costs its SimSession and its
// cohort, as many objects as a session with its own Player; stopping it
// costs nothing, and stopping one of a shared cohort costs its player's
// copy.
func TestSessionPoolAllocations(t *testing.T) {
	r := newFanRig(t, 1e9)
	bitrate := 1e5
	lone := testing.AllocsPerRun(200, func() {
		bitrate++ // a new bitrate: a cohort of its own
		r.pool.Attach(0, bitrate)
	})
	if lone > 2 {
		t.Fatalf("Attach of a lone session: %v objects, want at most 2", lone)
	}
	s := r.pool.Attach(0, 1)
	if n := mallocsDuring(s.Stop); n != 0 {
		t.Fatalf("Stop of a lone session: %v objects, want 0", n)
	}
	shared := []*SimSession{r.pool.Attach(0, 2), r.pool.Attach(0, 2)}
	if shared[0].Player != shared[1].Player {
		t.Fatal("two sessions attached at one instant with one bitrate do not share a player")
	}
	if n := mallocsDuring(shared[0].Stop); n != 1 {
		t.Fatalf("Stop of a shared session: %v objects, want 1 (its player's copy)", n)
	}
	if shared[0].Player == shared[1].Player {
		t.Fatal("a stopped session still shares its cohort's player")
	}
}
