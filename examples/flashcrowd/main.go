// Flashcrowd stresses the controller beyond the paper's scripted demo: a
// Poisson flash crowd of video sessions hits a random 12-router network,
// and the controller reacts to whatever congestion emerges — showing
// that the machinery is not specific to the Figure 1 gadget. The lies
// stay installed after the crowd drains: the controller's withdraw
// reaction (a fixed rule, not one of the planner's strategies) fires
// only once every alarm has cleared (utilisation under 10 %) and plain
// IGP routing would stay under 20 %, and this crowd's tail does not get
// there before the run ends, so the output ends with the reaction's lies
// still live (ROADMAP item 4).
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process: it builds the network and the crowd,
// runs the simulation and prints what the controller did to w.
func run(w io.Writer) error {
	// A random connected network with one content prefix ("d0").
	network := topo.RandomConnected(topo.RandomOpts{
		Nodes:     12,
		Degree:    3,
		MaxWeight: 4,
		Capacity:  10e6,
		Prefixes:  1,
		Seed:      7,
	})
	if err := network.Validate(); err != nil {
		return err
	}
	p, _ := network.PrefixByName("d0")
	fmt.Fprintf(w, "random network: %d routers, %d links, content prefix %v\n",
		network.NumNodes(), network.NumLinks()/2, p.Prefix)

	sim, err := controller.NewSim(controller.SimOpts{
		Topology: network,
		Prefix:   "d0",
		AttachAt: network.Name(p.Attachments[0].Node), // PoP next to the content
		WithCtrl: true,
	})
	if err != nil {
		return err
	}

	// A 90-second Poisson crowd from the two farthest routers (~0.8
	// sessions/s each, mean hold 40 s, 400 kbit/s per session). Two
	// ingresses matter: their shortest paths overlap mid-network — the
	// Figure 1 situation at random-topology scale — so rerouting can
	// genuinely relieve the congestion (a single saturated source's
	// egress cut cannot be routed around, and the planner refuses
	// zero-gain plans).
	in1, in2 := farthestRouters(network, p.Attachments[0].Node)
	waves := flashcrowd.PoissonWaves(network.Name(in1), 90*time.Second,
		0.8, 40*time.Second, 0.4e6, 42)
	waves = append(waves, flashcrowd.PoissonWaves(network.Name(in2), 90*time.Second,
		0.8, 40*time.Second, 0.4e6, 43)...)
	fmt.Fprintf(w, "flash crowd: %d sessions arriving at %s and %s over 90s\n",
		len(waves), network.Name(in1), network.Name(in2))
	if err := sim.Runner.Schedule(waves); err != nil {
		return err
	}

	sim.Run(180 * time.Second)

	fmt.Fprintln(w, "\ncontroller decisions:")
	if len(sim.Ctrl.Decisions) == 0 {
		fmt.Fprintln(w, "  (none — no strategy could improve on IGP routing; try a higher rate)")
	}
	for _, d := range sim.Ctrl.Decisions {
		fmt.Fprintf(w, "  t=%-6v %-18s lies=%d  %s\n", d.At, d.Strategy, d.Lies, d.Detail)
	}
	fmt.Fprintf(w, "\nend state: %d live lies, %d live flows, max utilisation %.2f\n",
		sim.Lies.LieCount(), sim.Net.FlowCount(), sim.Net.MaxUtilisation())
	if len(sim.Ctrl.Errors) > 0 {
		fmt.Fprintf(w, "controller errors: %v\n", sim.Ctrl.Errors)
	}
	return nil
}

// farthestRouters picks the two routers with the greatest IGP distance
// from the content, so the crowd crosses as much of the network as
// possible and the two shortest paths overlap mid-network. Ties go to
// the lower NodeID.
func farthestRouters(t *topo.Topology, from topo.NodeID) (topo.NodeID, topo.NodeID) {
	dist := spf.Compute(spf.FromTopology(t), from, nil).Dist
	best, second := from, from
	var bestD, secondD int64 = -1, -1
	for i, d := range dist {
		n := topo.NodeID(i)
		if d == spf.Infinity || t.Node(n).Host || n == from {
			continue
		}
		switch {
		case d > bestD:
			second, secondD = best, bestD
			best, bestD = n, d
		case d > secondD:
			second, secondD = n, d
		}
	}
	return best, second
}
