// Command fibsim is a one-shot analytic what-if tool: given a topology
// (the paper's Figure 1 by default, or a topology file) and a demand set,
// it prints the plain-IGP link loads, the LP-optimal min-max utilisation,
// the Fibbing realisation (the verified lies the controller would compile
// from the LP's splits, quantised at fibbing.MaxDenom, and the
// utilisation they achieve), the RSVP-TE baseline — the full §2
// comparison for arbitrary inputs — and what the controller's strategy
// planner would do about the hottest link.
//
// Usage:
//
//	fibsim [-topo file] [-demand ingress:prefix:bps]... [-strategies list]
//	fibsim -demand B:blue:8M -demand A:blue:8M
//	fibsim -strategies localecmp,lpoptimal   # what-if planner run
//
// Exit status: 1 when the inputs cannot be read or solved, 2 on a usage
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, prints the comparison
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fibsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoFile := fs.String("topo", "", "topology file (default: the paper's Figure 1)")
	strategies := fs.String("strategies", "localecmp,lpoptimal",
		"reaction strategies for the planner what-if section (empty disables it)")
	var demands []string
	fs.Func("demand", "demand as ingress:prefix:bps (repeatable), e.g. B:blue:8M", func(v string) error {
		demands = append(demands, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := compare(stdout, *topoFile, demands, *strategies); err != nil {
		fmt.Fprintf(stderr, "fibsim: %v\n", err)
		return 1
	}
	return 0
}

// compare prints the plain-IGP, Fibbing and RSVP-TE comparison for one
// topology and demand set, then the planner what-if.
func compare(w io.Writer, topoFile string, demandSpecs []string, strategies string) error {
	var t *topo.Topology
	if topoFile == "" {
		t = topo.Fig1(topo.Fig1Opts{})
	} else {
		f, err := os.Open(topoFile)
		if err != nil {
			return err
		}
		defer f.Close()
		t, err = topo.Parse(f)
		if err != nil {
			return err
		}
	}

	var demands []topo.Demand
	if len(demandSpecs) == 0 {
		demands = topo.Fig1Demands(t, 8e6)
		fmt.Fprintln(w, "no -demand given: using the Figure 1 surge (8 Mbit/s at A and B)")
	}
	for _, spec := range demandSpecs {
		d, err := topo.ParseDemandSpec(t, spec)
		if err != nil {
			return err
		}
		demands = append(demands, d)
	}

	// Plain IGP.
	loads, err := te.IGPLoads(t, demands)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n-- plain IGP (ECMP shortest paths) --")
	for _, line := range te.FormatLoads(t, loads) {
		fmt.Fprintln(w, "  ", line)
	}
	fmt.Fprintf(w, "  max utilisation: %.3f\n", te.MaxUtilOfLoads(t, loads))

	// LP + Fibbing.
	fb, err := te.RealizeMinMax(t, demands)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n-- Fibbing (LP-optimal splits realised with fake nodes) --")
	fmt.Fprintf(w, "  LP optimum θ*: %.3f\n", fb.Optimal)
	fmt.Fprintf(w, "  realised:      %.3f (quantised to ECMP weights, denominator <= %d)\n", fb.Realised, fibbing.MaxDenom)
	fmt.Fprintf(w, "  lies injected: %d\n", fb.Lies)
	for _, prefix := range slices.Sorted(maps.Keys(fb.PerPrefixLies)) {
		for _, l := range fb.PerPrefixLies[prefix] {
			fmt.Fprintf(w, "    %s: fake node at %s via %s cost %d\n",
				prefix, t.Name(l.Attach), t.Name(l.Via), l.Cost)
		}
	}

	// RSVP-TE baseline.
	rsvp, err := te.PlaceTunnels(t, demands)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n-- MPLS RSVP-TE baseline (CSPF tunnels) --")
	tb := metrics.NewTable("tunnels", "signal msgs", "state entries", "encap B/pkt", "max util")
	tb.AddRow(len(rsvp.Tunnels), rsvp.SignalingMessages, rsvp.StateEntries,
		rsvp.EncapBytesPerPacket, rsvp.MaxUtilisation)
	if err := tb.Render(w); err != nil {
		return err
	}
	if len(rsvp.Unplaced) > 0 {
		fmt.Fprintf(w, "  unplaced demands: %v\n", rsvp.Unplaced)
	}

	return planWhatIf(w, t, demands, loads, strategies)
}

// planWhatIf runs the controller's strategy planner analytically: it
// synthesises an alarm on the hottest link of the plain-IGP routing,
// asks the selected strategies, and prints every proposal plus the
// plan the planner would commit.
func planWhatIf(w io.Writer, t *topo.Topology, demands []topo.Demand, loads map[topo.LinkID]float64, strategies string) error {
	set, err := controller.ParseStrategies(strategies)
	if err != nil {
		return err
	}
	if len(set) == 0 {
		return nil
	}
	alarm, ok := controller.HottestLinkAlarm(t, loads)
	if !ok {
		return nil // uncapacitated topology: nothing to react to
	}
	planner := controller.NewPlanner(set...)
	ctx := controller.AnalyticPlanContext(t, demands, nil,
		controller.AlarmEvent(alarm), controller.Config{})
	fmt.Fprintf(w, "\n-- reaction-strategy planner (alarm on %s at %.0f%%, base util %.3f) --\n",
		alarm.Name, 100*alarm.Utilisation, ctx.BaseUtil)

	plans, errs := planner.ProposeAll(ctx)
	tb := metrics.NewTable("strategy", "lies", "predicted util", "meets target", "rationale")
	for _, p := range plans {
		tb.AddRow(p.Strategy, p.TotalLies(), fmt.Sprintf("%.3f", p.PredictedUtil),
			p.PredictedUtil <= controller.TargetUtil, p.Rationale)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	for _, e := range errs {
		fmt.Fprintf(w, "  strategy error: %v\n", e)
	}
	if winner := planner.Select(ctx, plans); winner != nil {
		fmt.Fprintf(w, "  planner would commit: %s (%d lies, predicted util %.3f)\n",
			winner.Strategy, winner.TotalLies(), winner.PredictedUtil)
	} else {
		fmt.Fprintln(w, "  planner would commit: nothing (no admissible plan)")
	}
	return nil
}
