// Quickstart: build the paper's Figure 1 network, look at its IGP
// routing, express the Figure 1c requirement (even split at B, 1:2 split
// at A), compile it into fake nodes, and verify the result — all in a few
// calls against the public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process: it walks the steps and prints each
// result to w.
func run(w io.Writer) error {
	// 1. The topology of the paper's Figure 1 (weights as published).
	network := topo.Fig1(topo.Fig1Opts{})
	fmt.Fprintln(w, "topology:")
	fmt.Fprint(w, indent(network.String()))

	// 2. Plain IGP routing towards the blue prefix.
	views, err := fibbing.IGPView(network, topo.Fig1BluePrefixName)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nIGP next hops towards blue:")
	for _, name := range []string{"A", "B", "R1", "R2", "R3", "R4"} {
		n := network.MustNode(name)
		fmt.Fprintf(w, "  %-3s -> %s\n", name, formatHops(network, views[n]))
	}

	// 3. The flash crowd: 8 Mbit/s surges at A and B overload B-R2.
	demands := topo.Fig1Demands(network, 8e6)
	loads, err := te.IGPLoads(network, demands)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmax utilisation before Fibbing: %.2f\n", te.MaxUtilOfLoads(network, loads))

	// 4. The requirement of Figure 1c/1d: B splits evenly over R2/R3,
	//    A splits 1/3 : 2/3 over B/R1.
	requirement := fibbing.Fig1DAG(network)
	aug, err := fibbing.AugmentAddPaths(network, topo.Fig1BluePrefixName, requirement)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncompiled %d lies:\n", aug.LieCount())
	for _, l := range aug.Lies {
		fmt.Fprintf(w, "  fake node at %s, forwarding to %s, announced cost %d\n",
			network.Name(l.Attach), network.Name(l.Via), l.Cost)
	}

	// 5. Verify and measure the effect.
	if err := fibbing.Verify(network, topo.Fig1BluePrefixName, aug.Lies, requirement); err != nil {
		return err
	}
	after, err := te.LoadsWithLies(network,
		map[string][]fibbing.Lie{topo.Fig1BluePrefixName: aug.Lies}, demands)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "max utilisation after Fibbing:  %.2f\n", te.MaxUtilOfLoads(network, after))
	fmt.Fprintln(w, "\nper-link loads after Fibbing (bit/s):")
	for _, line := range te.FormatLoads(network, after) {
		fmt.Fprintln(w, "  "+line)
	}

	// 6. The controller's pluggable reaction-strategy API: ask the stock
	//    strategies about the surge and see which plan the planner would
	//    commit. Custom policies implement
	//    controller.Strategy and register via WithStrategies.
	alarm, _ := controller.HottestLinkAlarm(network, loads)
	planner := controller.NewPlanner(controller.DefaultStrategies()...)
	ctx := controller.AnalyticPlanContext(network, demands, nil,
		controller.AlarmEvent(alarm), controller.Config{})
	fmt.Fprintf(w, "\nstrategy proposals for the %s alarm (base util %.2f):\n", alarm.Name, ctx.BaseUtil)
	plans, _ := planner.ProposeAll(ctx)
	for _, p := range plans {
		fmt.Fprintf(w, "  %-10s %d lies -> predicted util %.2f\n", p.Strategy, p.TotalLies(), p.PredictedUtil)
	}
	if winner := planner.Select(ctx, plans); winner != nil {
		fmt.Fprintf(w, "planner commits: %s (%s)\n", winner.Strategy, winner.Rationale)
	}
	return nil
}

func formatHops(t *topo.Topology, v fibbing.RouteView) string {
	if v.Local {
		return "local delivery"
	}
	out := ""
	for nh, w := range v.NextHops {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s (weight %d)", t.Name(nh), w)
	}
	if out == "" {
		return "unreachable"
	}
	return out
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
