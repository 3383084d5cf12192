package southbound

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/topo"
)

// flakyInjector fails the Inject calls (1-based) listed in fail. It
// records every accepted LSA so tests can count compensations.
type flakyInjector struct {
	fail     []int
	calls    int
	accepted []*ospf.LSA
}

func (f *flakyInjector) Inject(l *ospf.LSA) error {
	f.calls++
	if slices.Contains(f.fail, f.calls) {
		return fmt.Errorf("injector down (call %d)", f.calls)
	}
	f.accepted = append(f.accepted, l)
	return nil
}

// liveByLSID replays the accepted LSAs: the latest origination per LSID
// wins, MaxAge removes it. What remains is what the IGP would hold.
func (f *flakyInjector) liveByLSID() map[uint32]*ospf.LSA {
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
	return live
}

func testLies(t *testing.T) []fibbing.Lie {
	t.Helper()
	tp := topo.Fig1(topo.Fig1Opts{})
	return fig1Lies(t, tp)
}

// TestApplyPartialFailureAtomicity: when the injector dies mid-batch, the
// lies Apply already injected in that batch must be withdrawn again
// before the error returns — the manager's bookkeeping and the replayed
// wire state both equal the pre-call state.
func TestApplyPartialFailureAtomicity(t *testing.T) {
	lies := testLies(t) // 3 lies: 1 fB + 2 fA
	for failAt := 1; failAt <= len(lies); failAt++ {
		inj := &flakyInjector{fail: []int{failAt}}
		mgr := NewLieManager(inj, ospf.ControllerIDBase)
		if _, err := mgr.Apply(topo.Fig1BluePrefixName, lies); err == nil {
			t.Fatalf("failAt=%d: Apply succeeded despite injector failure", failAt)
		}
		if n := mgr.LieCount(); n != 0 {
			t.Fatalf("failAt=%d: %d lies half-installed after failed Apply", failAt, n)
		}
		if live := inj.liveByLSID(); len(live) != 0 {
			t.Fatalf("failAt=%d: %d fake LSAs left live on the wire", failAt, len(live))
		}
	}
}

// TestApplyWithdrawFailureRestores: a reconciliation that must withdraw
// lies fails mid-withdraw; the already-withdrawn lies are re-originated
// and the installed set stays the original one.
func TestApplyWithdrawFailureRestores(t *testing.T) {
	lies := testLies(t)
	inj := &flakyInjector{}
	mgr := NewLieManager(inj, ospf.ControllerIDBase)
	if _, err := mgr.Apply(topo.Fig1BluePrefixName, lies); err != nil {
		t.Fatal(err)
	}
	// Next two calls: first withdrawal succeeds, second fails.
	inj.fail = []int{inj.calls + 2}
	if _, err := mgr.Apply(topo.Fig1BluePrefixName, nil); err == nil {
		t.Fatal("Apply succeeded despite injector failure")
	}
	if n := mgr.LieCount(); n != len(lies) {
		t.Fatalf("installed count = %d after failed withdraw, want %d", n, len(lies))
	}
	if live := inj.liveByLSID(); len(live) != len(lies) {
		t.Fatalf("%d fake LSAs live on the wire, want %d", len(live), len(lies))
	}
	// The manager must still be able to reconcile once the injector heals
	// (sequence numbers moved past the aborted withdrawal).
	inj.fail = nil
	if _, err := mgr.Apply(topo.Fig1BluePrefixName, nil); err != nil {
		t.Fatal(err)
	}
	if n := mgr.LieCount(); n != 0 {
		t.Fatalf("lies not withdrawn after heal: %d", n)
	}
	if live := inj.liveByLSID(); len(live) != 0 {
		t.Fatalf("%d fake LSAs live after heal", len(live))
	}
}

// matchesWire fails the test unless the manager's bookkeeping is what
// the replayed wire holds: one live LSA per installed lie, at the lie's
// LSID and sequence number, and no other.
func matchesWire(t *testing.T, mgr *LieManager, inj *flakyInjector) {
	t.Helper()
	live := inj.liveByLSID()
	n := 0
	for prefix, entries := range mgr.installed {
		for _, e := range entries {
			n++
			if want := e.lie.ToLSA(mgr.adv, e.lsid, e.seq); !reflect.DeepEqual(live[e.lsid], want) {
				t.Fatalf("%s: installed %v (LSID %d, seq %d), wire holds %+v", prefix, e.lie, e.lsid, e.seq, live[e.lsid])
			}
		}
	}
	if len(live) != n {
		t.Fatalf("%d fake LSAs live on the wire, %d lies installed", len(live), n)
	}
}

// TestCommitRollsBackEveryPrefix: a multi-prefix commit whose second
// prefix in name order fails mid-way must restore the first prefix's
// previous lies as well — no half-installed multi-prefix state.
func TestCommitRollsBackEveryPrefix(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	blue := fig1Lies(t, tp)
	b, r3 := tp.MustNode("B"), tp.MustNode("R3")
	green := []fibbing.Lie{{Prefix: topo.Fig1BluePrefix, Attach: b, Via: r3, Cost: 2}}

	inj := &flakyInjector{}
	mgr := NewLieManager(inj, ospf.ControllerIDBase)
	// Pre-state: "green" has one installed lie.
	if _, err := mgr.Apply("green", green); err != nil {
		t.Fatal(err)
	}

	// Install blue's 3 lies, then replace green's lie (1 withdraw + 1
	// inject); fail on green's injection.
	replacement := []fibbing.Lie{{Prefix: topo.Fig1BluePrefix, Attach: b, Via: r3, Cost: 3}}
	inj.fail = []int{inj.calls + len(blue) + 2}
	_, err := mgr.Commit(map[string][]fibbing.Lie{topo.Fig1BluePrefixName: blue, "green": replacement})
	if err == nil {
		t.Fatal("commit succeeded despite injector failure")
	}

	// Green must be back to its pre-commit lie, blue empty.
	got := mgr.Installed("green")
	if len(got) != 1 || got[0] != green[0] {
		t.Fatalf("green after rollback = %v, want %v", got, green)
	}
	if n := len(mgr.Installed(topo.Fig1BluePrefixName)); n != 0 {
		t.Fatalf("blue half-installed: %d lies", n)
	}
	if live := inj.liveByLSID(); len(live) != 1 {
		t.Fatalf("%d fake LSAs live, want 1 (green's original)", len(live))
	}
	matchesWire(t, mgr, inj)
}

// TestCommitUndoFails: a multi-prefix commit fails mid-way, and so does
// the first undo, once of a withdrawal and once of an injection. The
// error names both failures, the bookkeeping is what the wire holds (the
// signal whose undo failed stands), and once the injector heals a commit
// reconciles to the desired set.
func TestCommitUndoFails(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	blue := fig1Lies(t, tp)
	b, r3 := tp.MustNode("B"), tp.MustNode("R3")
	green := []fibbing.Lie{{Prefix: topo.Fig1BluePrefix, Attach: b, Via: r3, Cost: 2}}
	replacement := []fibbing.Lie{{Prefix: topo.Fig1BluePrefix, Attach: b, Via: r3, Cost: 3}}
	bn := topo.Fig1BluePrefixName
	for _, tc := range []struct {
		name            string
		before, desired map[string][]fibbing.Lie
		// fail is the commit's failing call (1-based); the call after
		// it, the first undo, fails too.
		fail int
		want map[string]int // installed lies per prefix after the failure
	}{
		// Blue's 3 withdrawals, green's withdrawal, green's injection
		// fails; the undo of green's withdrawal fails.
		{"withdrawal stands", map[string][]fibbing.Lie{bn: blue, "green": green},
			map[string][]fibbing.Lie{bn: nil, "green": replacement}, len(blue) + 2, map[string]int{bn: len(blue)}},
		// Blue's 3 injections, green's withdrawal fails; the undo of
		// blue's third injection fails.
		{"injection stands", map[string][]fibbing.Lie{"green": green},
			map[string][]fibbing.Lie{bn: blue, "green": replacement}, len(blue) + 1, map[string]int{bn: 1, "green": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := &flakyInjector{}
			mgr := NewLieManager(inj, ospf.ControllerIDBase)
			if _, err := mgr.Commit(tc.before); err != nil {
				t.Fatal(err)
			}
			inj.fail = []int{inj.calls + tc.fail, inj.calls + tc.fail + 1}
			_, err := mgr.Commit(tc.desired)
			if err == nil {
				t.Fatal("commit succeeded despite injector failure")
			}
			for _, call := range inj.fail {
				if want := fmt.Sprintf("(call %d)", call); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not report %s", err, want)
				}
			}
			got := map[string]int{}
			for prefix, lies := range mgr.InstalledAll() {
				got[prefix] = len(lies)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("installed lies per prefix = %v, want %v", got, tc.want)
			}
			matchesWire(t, mgr, inj)

			inj.fail = nil
			if _, err := mgr.Commit(tc.desired); err != nil {
				t.Fatal(err)
			}
			for prefix, want := range tc.desired {
				have := mgr.Installed(prefix)
				slices.SortFunc(have, lieCompare)
				want = slices.SortedFunc(slices.Values(want), lieCompare)
				if !slices.Equal(have, want) {
					t.Fatalf("%s after the healed commit = %v, want %v", prefix, have, want)
				}
			}
			matchesWire(t, mgr, inj)
		})
	}
}

// TestCommitDelta: a successful commit returns every prefix's delta and
// leaves the desired state installed.
func TestCommitDelta(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	blue := fig1Lies(t, tp)
	inj := &flakyInjector{}
	mgr := NewLieManager(inj, ospf.ControllerIDBase)

	delta, err := mgr.Commit(map[string][]fibbing.Lie{topo.Fig1BluePrefixName: blue})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Injected) != len(blue) || len(delta.Withdrawn) != 0 {
		t.Fatalf("delta = %+v", delta)
	}
	if mgr.LieCount() != len(blue) {
		t.Fatalf("installed = %d", mgr.LieCount())
	}
}
