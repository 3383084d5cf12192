// Unevenlb demonstrates Fibbing's second headline capability in
// isolation: uneven load-balancing ratios with zero data-plane overhead.
// It asks for a sequence of target splits at router A, quantises each
// into ECMP weights, injects the duplicated fake nodes into a *running
// IGP*, and measures the split that per-flow hashing actually produces on
// the wire.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/southbound"
	"fibbing.net/fibbing/internal/topo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process: it walks the target splits and prints
// one line per split, then the withdrawal, to w.
func run(w io.Writer) error {
	network := topo.Fig1(topo.Fig1Opts{})
	sched := event.NewScheduler()
	net := netsim.New(network, sched, time.Second)
	domain := ospf.NewDomain(network, sched, ospf.Config{})
	domain.OnFIBDelta = func(n topo.NodeID, t *fib.Table, d *fib.Diff) { net.ApplyDiff(n, t, d) }
	domain.Start()
	if _, err := domain.RunUntilConverged(30 * time.Second); err != nil {
		return err
	}

	pop := domain.Router(network.MustNode("R3"))
	mgr := southbound.NewLieManager(southbound.DirectInjector{Router: pop}, ospf.ControllerIDBase)

	a := network.MustNode("A")
	b := network.MustNode("B")
	r1 := network.MustNode("R1")

	for _, target := range []struct {
		fracB, fracR1 float64
	}{
		{1.0 / 3, 2.0 / 3},
		{1.0 / 4, 3.0 / 4},
		{2.0 / 5, 3.0 / 5},
		{1.0 / 8, 7.0 / 8},
	} {
		// Quantise the target into ECMP weights.
		weights, err := fibbing.ApproxWeights([]float64{target.fracB, target.fracR1}, 16)
		if err != nil {
			return err
		}
		dag := fibbing.DAG{a: fibbing.NextHopWeights{b: weights[0], r1: weights[1]}}
		aug, err := fibbing.AugmentAddPaths(network, topo.Fig1BluePrefixName, dag)
		if err != nil {
			return err
		}
		if _, err := mgr.Apply(topo.Fig1BluePrefixName, aug.Lies); err != nil {
			return err
		}
		if _, err := domain.RunUntilConverged(sched.Now() + 60*time.Second); err != nil {
			return err
		}

		// Measure the actual split over 4000 hashed flows.
		table := domain.Router(a).FIB()
		viaR1 := 0
		const flows = 4000
		for i := 0; i < flows; i++ {
			key := fib.FlowKey{
				Src:     ospf.Loopback(a),
				Dst:     ospf.HostAddr(topo.Fig1BluePrefix, i),
				SrcPort: uint16(20000 + i), DstPort: 8080, Proto: 6,
			}
			nh, _, ok := table.Select(key.Dst, key)
			if !ok {
				return fmt.Errorf("flow %d has no route", i)
			}
			if nh.Node == r1 {
				viaR1++
			}
		}
		measured := float64(viaR1) / flows
		fmt.Fprintf(w, "target %4.0f%% via R1 -> weights {B:%d, R1:%d} (%d fake nodes) -> measured %5.1f%% via R1\n",
			100*target.fracR1, weights[0], weights[1], aug.LieCount(), 100*measured)
	}

	// Clean up: withdraw everything; A reverts to single-path routing.
	if err := mgr.WithdrawAll(); err != nil {
		return err
	}
	if _, err := domain.RunUntilConverged(sched.Now() + 60*time.Second); err != nil {
		return err
	}
	route, _ := domain.Router(a).FIB().Lookup(topo.Fig1BluePrefix.Addr())
	fmt.Fprintf(w, "after withdrawal, A's next hops: %d (plain IGP again)\n", len(route.NextHops))
	return nil
}
