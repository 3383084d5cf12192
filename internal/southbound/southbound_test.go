package southbound

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/topo"
)

func fig1Domain(t *testing.T) (*topo.Topology, *ospf.Domain) {
	t.Helper()
	tp := topo.Fig1(topo.Fig1Opts{})
	d := ospf.NewDomain(tp, event.NewScheduler(), ospf.Config{})
	d.Start()
	if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	return tp, d
}

func fig1Lies(t *testing.T, tp *topo.Topology) []fibbing.Lie {
	t.Helper()
	aug, err := fibbing.AugmentAddPaths(tp, topo.Fig1BluePrefixName, fibbing.Fig1DAG(tp))
	if err != nil {
		t.Fatal(err)
	}
	return aug.Lies
}

func blueWeights(tp *topo.Topology, d *ospf.Domain, router string) map[string]int {
	r := d.Router(tp.MustNode(router))
	route, ok := r.FIB().Lookup(topo.Fig1BluePrefix.Addr())
	if !ok {
		return nil
	}
	out := map[string]int{}
	for _, nh := range route.NextHops {
		out[tp.Name(nh.Node)] += nh.Weight
	}
	return out
}

func TestLieManagerApplyAndWithdraw(t *testing.T) {
	tp, d := fig1Domain(t)
	mgr := NewLieManager(DirectInjector{Router: d.Router(tp.MustNode("R3"))}, ospf.ControllerIDBase)
	lies := fig1Lies(t, tp)

	delta, err := mgr.Apply(topo.Fig1BluePrefixName, lies)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Injected) != 3 || len(delta.Withdrawn) != 0 || mgr.LieCount() != 3 {
		t.Fatalf("delta=%+v count=%d", delta, mgr.LieCount())
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueWeights(tp, d, "A"); got["B"] != 1 || got["R1"] != 2 {
		t.Fatalf("A = %v", got)
	}

	// Re-applying the identical set must be a no-op.
	delta, err = mgr.Apply(topo.Fig1BluePrefixName, lies)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() {
		t.Fatalf("idempotent Apply reported delta %+v", delta)
	}

	// Withdraw everything: routing reverts, databases are clean.
	if err := mgr.WithdrawAll(); err != nil {
		t.Fatal(err)
	}
	if mgr.LieCount() != 0 {
		t.Fatalf("count after withdraw = %d", mgr.LieCount())
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueWeights(tp, d, "A"); len(got) != 1 || got["B"] != 1 {
		t.Fatalf("A after withdraw = %v", got)
	}
	for n, r := range d.Routers() {
		if len(r.DB().ByType(ospf.TypeFake)) != 0 {
			t.Fatalf("%s still has fakes", tp.Name(n))
		}
	}
}

func TestLieManagerPartialReconcile(t *testing.T) {
	tp, d := fig1Domain(t)
	mgr := NewLieManager(DirectInjector{Router: d.Router(tp.MustNode("R3"))}, ospf.ControllerIDBase)
	lies := fig1Lies(t, tp) // fB + 2x fA

	if _, err := mgr.Apply(topo.Fig1BluePrefixName, lies); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}

	// Shrink to fB only: both fA lies are withdrawn, fB untouched.
	var fbOnly []fibbing.Lie
	for _, l := range lies {
		if l.Attach == tp.MustNode("B") {
			fbOnly = append(fbOnly, l)
		}
	}
	delta, err := mgr.Apply(topo.Fig1BluePrefixName, fbOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Withdrawn) != 2 || len(delta.Injected) != 0 || mgr.LieCount() != 1 {
		t.Fatalf("delta=%+v count=%d", delta, mgr.LieCount())
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueWeights(tp, d, "A"); len(got) != 1 || got["B"] != 1 {
		t.Fatalf("A = %v after shrink", got)
	}
	if got := blueWeights(tp, d, "B"); got["R2"] != 1 || got["R3"] != 1 {
		t.Fatalf("B = %v after shrink", got)
	}
}

func TestLieManagerRequiresControllerID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic")
		}
	}()
	NewLieManager(DirectInjector{}, ospf.RouterID(5))
}
