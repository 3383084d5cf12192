package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/qoe"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/topo"
)

// recordingInjector fails the Nth Inject call (1-based, counted from
// zero; failAt <= 0 never fails) and records every accepted LSA, so
// tests can replay the wire state after a rollback.
type recordingInjector struct {
	failAt   int
	calls    int
	accepted []*ospf.LSA
}

func (f *recordingInjector) Inject(l *ospf.LSA) error {
	f.calls++
	if f.failAt > 0 && f.calls == f.failAt {
		return fmt.Errorf("injector down (call %d)", f.calls)
	}
	f.accepted = append(f.accepted, l)
	return nil
}

// liveLSIDs replays the accepted LSAs (latest origination wins, MaxAge
// removes) and returns the surviving LSIDs sorted.
func (f *recordingInjector) liveLSIDs() []uint32 {
	live := make(map[uint32]*ospf.LSA)
	for _, l := range f.accepted {
		if cur, ok := live[l.Header.LSID]; ok && cur.Header.Seq > l.Header.Seq {
			continue
		}
		if l.Header.Age >= ospf.MaxAgeSeconds {
			delete(live, l.Header.LSID)
			continue
		}
		live[l.Header.LSID] = l
	}
	out := make([]uint32, 0, len(live))
	for id := range live {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// failoverRig is a controller over Fig1 with demand from B and A toward
// the blue prefix at C.
type failoverRig struct {
	tp  *topo.Topology
	inj *recordingInjector
	mgr *southbound.LieManager
	c   *Controller
}

func newFailoverRig(t *testing.T) *failoverRig {
	t.Helper()
	r := &failoverRig{tp: topo.Fig1(topo.Fig1Opts{}), inj: &recordingInjector{}}
	r.mgr = southbound.NewLieManager(r.inj, ospf.ControllerIDBase)
	r.c = New(r.tp, r.mgr, func() time.Duration { return 0 })
	r.c.Handle(DemandEvent(topo.Fig1BluePrefixName, r.tp.MustNode(topo.Fig1B), 10e6))
	r.c.Handle(DemandEvent(topo.Fig1BluePrefixName, r.tp.MustNode(topo.Fig1A), 6e6))
	return r
}

// link returns the Fig1 link a-b.
func (r *failoverRig) link(t *testing.T, a, b string) topo.Link {
	t.Helper()
	l, ok := r.tp.FindLink(r.tp.MustNode(a), r.tp.MustNode(b))
	if !ok {
		t.Fatalf("no link %s-%s", a, b)
	}
	return l
}

// TestStandbyHitCommitsPrecomputedPlan: a failover plan computed ahead of
// the failure — what the deleted standby cache precomputed in idle time,
// over the same pair a LinkDown uses: evaluated on the topology without
// the link, compiled against the one the routers still believe — is
// exactly the plan a LinkDown commits at the failure instant, which is
// why the cache moved no simulated number.
func TestStandbyHitCommitsPrecomputedPlan(t *testing.T) {
	r := newFailoverRig(t)
	v := r.link(t, topo.Fig1B, topo.Fig1R2)
	live := NewPlanArtifacts(r.tp.CloneWithoutLinks(v.ID))
	pre, err := failoverPin(live, r.tp, v, r.mgr.InstalledAll(), r.c.Demands())
	if err != nil || pre == nil {
		t.Fatalf("precomputed plan = %v, %v; want a plan", pre, err)
	}
	r.c.Handle(LinkDownEvent(v))
	if len(r.c.Errors) != 0 {
		t.Fatalf("errors: %v", r.c.Errors)
	}
	if len(r.c.Decisions) != 1 || r.c.Decisions[0].Strategy != pre.Strategy {
		t.Fatalf("decisions = %v, want one %s commit", r.c.Decisions, pre.Strategy)
	}
	if got, want := lieSetFingerprint(r.mgr.InstalledAll()), lieSetFingerprint(pre.Lies); got != want {
		t.Fatalf("committed lies differ from the precomputed plan:\n got  %s\n want %s", got, want)
	}
}

// TestStandbyColdMissReplans: every liveness failure is now the cold-miss
// case — planned from scratch at the failure instant — and commits
// exactly one failover-pin decision that installs lies; a duplicate
// announcement of the same failure (the other endpoint, or the IGP dead
// interval after BFD) changes nothing.
func TestStandbyColdMissReplans(t *testing.T) {
	r := newFailoverRig(t)
	v := r.link(t, topo.Fig1B, topo.Fig1R2)
	r.c.Handle(LinkDownEvent(v))
	r.c.Handle(LinkDownEvent(r.tp.Link(v.Reverse)))
	if len(r.c.Errors) != 0 {
		t.Fatalf("errors: %v", r.c.Errors)
	}
	if len(r.c.Decisions) != 1 {
		t.Fatalf("decisions = %v, want one failover commit", r.c.Decisions)
	}
	if d := r.c.Decisions[0]; d.Strategy != "failover-pin" || d.Lies == 0 {
		t.Fatalf("committed %+v, want failover-pin with lies", d)
	}
	if r.mgr.LieCount() == 0 {
		t.Fatal("no lies installed by the failover plan")
	}
}

// lieSetFingerprint canonically serialises the installed lie set, so
// byte-identity before/after a rollback is a string comparison.
func lieSetFingerprint(installed map[string][]fibbing.Lie) string {
	prefixes := make([]string, 0, len(installed))
	for p := range installed {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	var b strings.Builder
	for _, p := range prefixes {
		lies := append([]fibbing.Lie(nil), installed[p]...)
		sort.Slice(lies, func(i, j int) bool {
			a, c := lies[i], lies[j]
			if a.Attach != c.Attach {
				return a.Attach < c.Attach
			}
			if a.Via != c.Via {
				return a.Via < c.Via
			}
			return a.Cost < c.Cost
		})
		fmt.Fprintf(&b, "%s=%+v;", p, lies)
	}
	return b.String()
}

// TestFailoverCommitRollbackByteIdentical: the injector dies at every
// possible call position inside the failover commit for B-R2; each time,
// the rollback must leave the installed lie set byte-identical to the
// pre-failure state and the replayed wire state must hold exactly the
// pre-failure LSAs.
func TestFailoverCommitRollbackByteIdentical(t *testing.T) {
	for failAt := 1; ; failAt++ {
		r := newFailoverRig(t)
		// Pre-state: an earlier (hand-made) plan is installed, so rollback
		// must restore lies, not merely clear them.
		baseline := []fibbing.Lie{{
			Prefix: topo.Fig1BluePrefix,
			Attach: r.tp.MustNode(topo.Fig1B),
			Via:    r.tp.MustNode(topo.Fig1R3),
			Cost:   2,
		}}
		if _, err := r.mgr.Apply(topo.Fig1BluePrefixName, baseline); err != nil {
			t.Fatal(err)
		}
		v := r.link(t, topo.Fig1B, topo.Fig1R2)

		before := lieSetFingerprint(r.mgr.InstalledAll())
		beforeWire := r.inj.liveLSIDs()

		r.inj.failAt = r.inj.calls + failAt
		r.c.Handle(LinkDownEvent(v))
		if len(r.c.Errors) == 0 {
			// failAt exceeded the commit's call count: the whole commit
			// succeeded, so every failure position has been exercised.
			if failAt == 1 {
				t.Fatal("commit made no injector calls; nothing was tested")
			}
			if len(r.c.Decisions) != 1 || r.c.Decisions[0].Strategy != "failover-pin" {
				t.Fatalf("decisions = %v, want the failover-pin commit on the final clean run", r.c.Decisions)
			}
			break
		}
		if got := lieSetFingerprint(r.mgr.InstalledAll()); got != before {
			t.Fatalf("failAt=%d: lie set changed across rollback:\n before %s\n after  %s",
				failAt, before, got)
		}
		if got := r.inj.liveLSIDs(); !reflect.DeepEqual(got, beforeWire) {
			t.Fatalf("failAt=%d: wire LSAs %v after rollback, want %v", failAt, got, beforeWire)
		}
		if len(r.c.Decisions) != 0 {
			t.Fatalf("failAt=%d: failed commit logged a decision", failAt)
		}
	}
}

// TestEnsureArtifactsRebindsOnEachGeneration: a demand change, a
// committed lie change and a liveness change each mark the artifact
// cache stale on their own — landing in the same instant included — so
// the cache over an unchanged topology instance starts a new epoch after
// each, and only after one. A new epoch recomputes the epoch
// tables (the plain-IGP view probed here) and keeps the topology binding
// and its tables (local-ecmp's spread at B probed here).
func TestEnsureArtifactsRebindsOnEachGeneration(t *testing.T) {
	r := newFailoverRig(t)
	b := r.tp.MustNode(topo.Fig1B)
	probe := func() (*PlanArtifacts, uint64) {
		t.Helper()
		a := r.c.ensureArtifacts(r.tp)
		misses := a.Stats().Misses
		a.spread(topo.Fig1BluePrefixName, b, false)
		if _, err := a.Views(topo.Fig1BluePrefixName, nil); err != nil {
			t.Fatal(err)
		}
		return a, a.Stats().Misses - misses
	}
	rebinds := func(what string, want bool, step func()) {
		t.Helper()
		before, _ := probe()
		step()
		after, misses := probe()
		if after != before {
			t.Fatalf("%s: the topology binding was dropped", what)
		}
		if got := misses > 0; got != want {
			t.Fatalf("%s: new epoch = %v, want %v", what, got, want)
		}
		if misses > 1 {
			t.Fatalf("%s: %d misses, want only the view's: the spread did not survive", what, misses)
		}
	}
	rebinds("nothing", false, func() {})
	rebinds("demand change", true, func() {
		r.c.Handle(DemandEvent(topo.Fig1BluePrefixName, r.tp.MustNode(topo.Fig1B), 12e6))
	})
	rebinds("lie change", true, func() {
		n := len(r.c.Decisions)
		r.c.Handle(AlarmEvent(alarmOn(t, r.tp, topo.Fig1B, topo.Fig1R2, 1.2)))
		if len(r.c.Decisions) == n {
			t.Fatal("alarm did not commit a lie change")
		}
	})
	v := r.link(t, topo.Fig1A, topo.Fig1R1)
	rebinds("link down", true, func() { r.c.markFailed(v, true) })
	rebinds("duplicate link down", false, func() { r.c.markFailed(r.tp.Link(v.Reverse), true) })
	rebinds("link up", true, func() { r.c.markFailed(v, false) })
}

// TestPlanningSkipsFailedLinks: once a link is liveness-failed, alarm
// planning runs over the reduced topology — a plan can no longer route
// over the dead link — and alarms on the dead link itself are ignored.
// After a second failure the reduced topology loses both links.
func TestPlanningSkipsFailedLinks(t *testing.T) {
	r := newFailoverRig(t)
	br2 := r.link(t, topo.Fig1B, topo.Fig1R2)
	r.c.Handle(LinkDownEvent(br2))

	// An alarm naming the dead link is obsolete: no plan, no error.
	decisionsBefore := len(r.c.Decisions)
	r.c.Handle(AlarmEvent(alarmOn(t, r.tp, topo.Fig1B, topo.Fig1R2, 1.2)))
	if len(r.c.Decisions) != decisionsBefore {
		t.Fatal("alarm on a failed link still produced a commit")
	}

	// steersOver fails the test when any committed lie sends traffic
	// across one of the dead pairs.
	steersOver := func(dead ...topo.Link) {
		t.Helper()
		for prefix, lies := range r.mgr.InstalledAll() {
			for _, lie := range lies {
				for _, l := range dead {
					if (lie.Attach == l.From && lie.Via == l.To) || (lie.Attach == l.To && lie.Via == l.From) {
						t.Fatalf("prefix %s: lie %+v steers over the dead link %s-%s",
							prefix, lie, r.tp.Name(l.From), r.tp.Name(l.To))
					}
				}
			}
		}
	}

	// An alarm elsewhere plans over the reduced topology: no committed
	// lie may steer over the dead B-R2 pair.
	r.c.Handle(AlarmEvent(alarmOn(t, r.tp, topo.Fig1A, topo.Fig1B, 1.2)))
	steersOver(br2)

	// The failed set changes again — B-R2 heals, R1-R4 dies — and the next
	// alarm plans over a topology rebuilt for it: B-R2 usable, R1-R4 not.
	r1r4 := r.link(t, topo.Fig1R1, topo.Fig1R4)
	r.c.Handle(LinkUpEvent(br2))
	r.c.Handle(LinkDownEvent(r1r4))
	decisionsBefore = len(r.c.Decisions)
	r.c.Handle(AlarmEvent(alarmOn(t, r.tp, topo.Fig1B, topo.Fig1R2, 1.2)))
	if len(r.c.Decisions) == decisionsBefore {
		t.Fatalf("alarm after the second change committed nothing (decisions %v, errors %v)", r.c.Decisions, r.c.Errors)
	}
	steersOver(r1r4)
}

// TestPartitionStrandsDemand: a BFD LinkDown that cuts a pendant
// ingress off a ring is no controller error. Its reaction names the
// demand it cuts off as stranded, plans the rest, and withdraws the lie
// attached at the pendant, which no router can reach any more; after the
// LinkUp the stranded demand is planned again.
func TestPartitionStrandsDemand(t *testing.T) {
	tp := topo.New()
	ring := make([]topo.NodeID, 4)
	for i := range ring {
		ring[i] = tp.AddNode(fmt.Sprintf("r%d", i))
	}
	for i, w := range []int64{1, 1, 1, 2} {
		tp.AddLink(ring[i], ring[(i+1)%len(ring)], w, topo.LinkOpts{Capacity: 10e6})
	}
	p := tp.AddNode("p")
	tp.AddLink(p, ring[0], 1, topo.LinkOpts{Capacity: 100e6})
	far := netip.MustParsePrefix("10.0.2.0/24")
	tp.AddPrefix(netip.MustParsePrefix("10.0.1.0/24"), "near", topo.Attachment{Node: ring[2]})
	tp.AddPrefix(far, "far", topo.Attachment{Node: ring[3]})
	mgr := southbound.NewLieManager(&recordingInjector{}, ospf.ControllerIDBase)
	c := New(tp, mgr, func() time.Duration { return time.Second })
	c.Handle(DemandEvent("near", p, 16e6))
	c.Handle(DemandEvent("near", ring[1], 1e6))
	c.Handle(DemandEvent("far", p, 1e6))
	if _, err := mgr.Apply("far", []fibbing.Lie{{Prefix: far, Attach: p, Via: ring[0], Cost: 1}}); err != nil {
		t.Fatal(err)
	}

	cut, _ := tp.FindLink(p, ring[0])
	c.Handle(LinkDownEvent(cut))
	if len(c.Errors) != 0 || len(c.Reactions) != 1 {
		t.Fatalf("the partition reacted %+v with errors %v, want one reaction and none", c.Reactions, c.Errors)
	}
	if r := c.Reactions[0]; !slices.Equal(r.Stranded, []string{"far@p", "near@p"}) || r.Strategy != "failover-pin" {
		t.Fatalf("link-down reaction %+v, want a failover-pin with far@p and near@p stranded", r)
	}
	for prefix, lies := range mgr.InstalledAll() {
		views, err := fibbing.IGPView(c.live, prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lies {
			if !routed(views, l.Attach) {
				t.Fatalf("prefix %s: lie %+v is attached at %s, which has no route on the live topology",
					prefix, l, tp.Name(l.Attach))
			}
		}
	}

	// The heal reconnects p, and its 16 Mbit/s is planned again: without
	// it the ring would carry r1's 1 Mbit/s alone, and the hottest-link
	// round would not run.
	c.Handle(LinkUpEvent(cut))
	if len(c.Errors) != 0 || len(c.Reactions) != 2 {
		t.Fatalf("reactions = %+v with errors %v, want the heal's after the failure's", c.Reactions, c.Errors)
	}
	if r := c.Reactions[1]; len(r.Stranded) != 0 || r.BaseUtil == nil || *r.BaseUtil <= TargetUtil || len(r.Candidates) == 0 {
		t.Fatalf("heal reaction %+v, want a planning round over p's demand with nothing stranded", r)
	}
}

// TestHealReplansHottestLink: a heal the revert cannot improve on runs
// the alarm path's planning round on the hottest link at once, instead
// of waiting for the next SNMP alarm. The link dies before any demand
// (no pin commits; the snapshot and the installed set are empty), demand
// then overloads the healed topology (demand events never plan), and the
// heal commits a plan, recorded as a link-up reaction with its
// candidates.
func TestHealReplansHottestLink(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	mgr := southbound.NewLieManager(&recordingInjector{}, ospf.ControllerIDBase)
	c := New(tp, mgr, func() time.Duration { return time.Second })
	l, ok := tp.FindLink(tp.MustNode(topo.Fig1B), tp.MustNode(topo.Fig1R2))
	if !ok {
		t.Fatal("no link B-R2")
	}
	c.Handle(LinkDownEvent(l))
	if len(c.Reactions) != 0 || len(c.preFailure) != 0 || mgr.LieCount() != 0 {
		t.Fatalf("a failure with no demand reacted: reactions %+v, snapshot %v, %d lies",
			c.Reactions, c.preFailure, mgr.LieCount())
	}
	c.Handle(DemandEvent(topo.Fig1BluePrefixName, tp.MustNode(topo.Fig1B), 10e6))
	c.Handle(DemandEvent(topo.Fig1BluePrefixName, tp.MustNode(topo.Fig1A), 6e6))
	if len(c.Reactions) != 0 {
		t.Fatalf("demand events reacted: %+v", c.Reactions)
	}
	c.Handle(LinkUpEvent(l))
	if len(c.Errors) != 0 {
		t.Fatalf("errors: %v", c.Errors)
	}
	if len(c.Decisions) != 1 || mgr.LieCount() == 0 {
		t.Fatalf("the heal committed %+v (%d lies), want one plan", c.Decisions, mgr.LieCount())
	}
	if len(c.Reactions) != 1 {
		t.Fatalf("reactions = %+v, want the heal's", c.Reactions)
	}
	r := c.Reactions[0]
	if r.Trigger != "link-up" || r.Link != "B-R2" || r.At != time.Second || len(r.Candidates) == 0 ||
		r.Strategy != c.Decisions[0].Strategy || r.Lies != c.Decisions[0].Lies {
		t.Fatalf("heal reaction %+v does not record the link-up round behind %+v", r, c.Decisions[0])
	}
}

// TestReactionOmitsNonFiniteNumbers: a QoE round whose predictor fails
// leaves a candidate's stall at +Inf, and an evaluator failure leaves the
// base utilisation there; encoding/json rejects both, so the record
// leaves them out and still marshals.
func TestReactionOmitsNonFiniteNumbers(t *testing.T) {
	ctx := PlanContext{
		BaseUtil:  math.Inf(1),
		BaseStall: 10,
		PredictQoE: func(map[string][]fibbing.Lie) (qoe.PlanQoE, error) {
			return qoe.PlanQoE{}, errors.New("no viewer model")
		},
	}
	plans := []*Plan{{Strategy: "lp-optimal", PredictedUtil: 0.9}}
	best := NewPlanner().Select(ctx, plans)
	if best != nil || !math.IsInf(plans[0].PredictedStall, 1) {
		t.Fatalf("Select picked %+v with stall %v; want no winner and a +Inf stall", best, plans[0].PredictedStall)
	}
	r := roundRecord(ctx, plans, best)
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"at":0,"trigger":"","link":"","base_stall":10,"candidates":[{"strategy":"lp-optimal","predicted_util":0.9,"lie_cost":0,"verdict":"inadmissible"}]}`
	if string(out) != want {
		t.Fatalf("record = %s\n want %s", out, want)
	}
}

// TestHealRevertsPinAtEqualUtilisation: a heal whose pre-failure lie set
// evaluates at the same max utilisation as the pin still reverts, as it
// leaves fewer live lies. On Fig1 the pin around a dead B-R2 keeps 3
// lies, and after the heal the bare IGP loads the hottest link as fully
// as the pin does: the pin buys nothing once the IGP routes round the
// healed link, so the heal withdraws it.
func TestHealRevertsPinAtEqualUtilisation(t *testing.T) {
	r := newFailoverRig(t)
	l := r.link(t, topo.Fig1B, topo.Fig1R2)
	r.c.Handle(LinkDownEvent(l))
	if len(r.c.Decisions) != 1 || r.c.Decisions[0].Strategy != "failover-pin" || r.mgr.LieCount() == 0 {
		t.Fatalf("failure decisions %+v (%d lies), want one failover-pin", r.c.Decisions, r.mgr.LieCount())
	}
	pinned := r.mgr.InstalledAll()
	r.c.Handle(LinkUpEvent(l))
	// The tie the revert commits on: equal utilisation, fewer lies.
	demands, _ := r.c.liveDemands()
	arts := r.c.ensureArtifacts(r.c.live)
	pin, err := arts.MaxUtil(pinned, demands)
	if err != nil {
		t.Fatal(err)
	}
	igp, err := arts.MaxUtil(nil, demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pin-igp) > utilEps(pin, igp) {
		t.Fatalf("pin %.6f and IGP %.6f differ after the heal; the test needs a tie", pin, igp)
	}
	if len(r.c.Errors) != 0 {
		t.Fatalf("errors: %v", r.c.Errors)
	}
	if len(r.c.Decisions) != 2 || r.c.Decisions[1].Strategy != "failover-revert" || r.mgr.LieCount() != 0 {
		t.Fatalf("heal decisions %+v (%d lies left), want failover-revert to the lie-free pre-failure set",
			r.c.Decisions, r.mgr.LieCount())
	}
	if last := r.c.Reactions[len(r.c.Reactions)-1]; last.Trigger != "link-up" || last.Strategy != "failover-revert" {
		t.Fatalf("heal reaction %+v, want link-up failover-revert", last)
	}
}
