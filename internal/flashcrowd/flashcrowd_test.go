package flashcrowd

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/topo"
)

// rig wires a Fig1 IGP + netsim so flows actually route.
func rig(t *testing.T) (*topo.Topology, *event.Scheduler, *netsim.Network) {
	t.Helper()
	tp := topo.Fig1(topo.Fig1Opts{})
	sched := event.NewScheduler()
	net := netsim.New(tp, sched, time.Second)
	dom := ospf.NewDomain(tp, sched, ospf.Config{})
	dom.OnFIBDelta = func(n topo.NodeID, tab *fib.Table, d *fib.Diff) { net.ApplyDiff(n, tab, d) }
	dom.Start()
	return tp, sched, net
}

func TestFig2ScheduleShape(t *testing.T) {
	waves := Fig2Schedule(0)
	if len(waves) != 3 {
		t.Fatalf("waves = %d", len(waves))
	}
	if waves[0].At != 0 || waves[0].Flows != 1 || waves[0].Ingress != topo.Fig1B {
		t.Fatalf("wave 0 = %+v", waves[0])
	}
	if waves[1].At != 15*time.Second || waves[1].Flows != 30 || waves[1].Ingress != topo.Fig1B {
		t.Fatalf("wave 1 = %+v", waves[1])
	}
	if waves[2].At != 35*time.Second || waves[2].Flows != 31 || waves[2].Ingress != topo.Fig1A {
		t.Fatalf("wave 2 = %+v", waves[2])
	}
	for _, w := range waves {
		if w.Rate != DefaultVideoRate {
			t.Fatalf("default rate not applied: %+v", w)
		}
	}
}

func TestRunnerSchedulesWaves(t *testing.T) {
	_, sched, net := rig(t)
	var joins, leaves int
	r := &Runner{
		Net: net, Sched: sched, Prefix: topo.Fig1BluePrefixName,
		OnJoin:  func(topo.NodeID, float64) { joins++ },
		OnLeave: func(topo.NodeID, float64) { leaves++ },
	}
	err := r.Schedule([]Wave{
		{At: time.Second, Ingress: "B", Flows: 3, Rate: 1e6},
		{At: 2 * time.Second, Ingress: "A", Flows: 2, Rate: 1e6, Hold: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(10 * time.Second)
	if joins != 5 || leaves != 2 {
		t.Fatalf("joins=%d leaves=%d", joins, leaves)
	}
	if net.FlowCount() != 3 {
		t.Fatalf("live flows = %d", net.FlowCount())
	}
	if len(r.Flows()) != 5 {
		t.Fatalf("started flows = %d", len(r.Flows()))
	}
	// Flows must actually deliver (routes converged, prefix reachable).
	for _, id := range r.Flows()[:3] {
		f := net.Flow(id)
		if f == nil || f.Blocked() || f.Rate() != 1e6 {
			t.Fatalf("flow %d not delivering: %+v", id, f)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	_, sched, net := rig(t)
	r := &Runner{Net: net, Sched: sched, Prefix: "nope"}
	if err := r.Schedule([]Wave{{At: 0, Ingress: "B", Flows: 1, Rate: 1}}); err == nil {
		t.Fatalf("unknown prefix accepted")
	}
	r2 := &Runner{Net: net, Sched: sched, Prefix: topo.Fig1BluePrefixName}
	if err := r2.Schedule([]Wave{{At: 0, Ingress: "ZZZ", Flows: 1, Rate: 1}}); err == nil {
		t.Fatalf("unknown ingress accepted")
	}
	if err := r2.Schedule([]Wave{{At: 0, Ingress: "B", Flows: 0, Rate: 1}}); err == nil {
		t.Fatalf("empty wave accepted")
	}
}

func TestPoissonWavesDeterministic(t *testing.T) {
	a := PoissonWaves("B", time.Minute, 0.5, 10*time.Second, 1e6, 42)
	b := PoissonWaves("B", time.Minute, 0.5, 10*time.Second, 1e6, 42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wave %d differs", i)
		}
	}
	// Roughly arrivalRate * window sessions (loose bound).
	if len(a) < 10 || len(a) > 60 {
		t.Fatalf("poisson count = %d, expected ~30", len(a))
	}
	for _, w := range a {
		if w.At < 0 || w.At >= time.Minute || w.Hold <= 0 {
			t.Fatalf("bad wave %+v", w)
		}
	}
}

func TestPoissonDifferentSeedsDiffer(t *testing.T) {
	a := PoissonWaves("B", time.Minute, 0.5, 10*time.Second, 1e6, 1)
	b := PoissonWaves("B", time.Minute, 0.5, 10*time.Second, 1e6, 2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical workloads")
	}
}
