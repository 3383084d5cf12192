// Videodelivery replays the paper's demo (Figure 2): video waves arrive
// at t=0, t=15s and t=35s; the Fibbing controller reacts to SNMP alarms
// by injecting fake nodes. The example runs the demo's scenario cell
// (fig1/fig2) twice — with and without the controller — and prints the
// link-throughput series and the per-session playback quality,
// reproducing "smooth with Fibbing, stuttering without", then checks the
// scenario matrix invariants between the two runs.
//
// The -viewers flag scales the same demand to an arbitrary crowd size
// (e.g. -viewers 100000): per-session bitrate shrinks so the total stays
// the demo's, and the run reports how few aggregates the traffic plane
// needed to carry them.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

func main() {
	viewers := flag.Int("viewers", 0, "scale the demo crowd to this many sessions (0 keeps the paper's 62)")
	flag.Parse()
	if err := run(os.Stdout, *viewers); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process: it runs the demo cell at the given
// crowd size (0 keeps the paper's 62 viewers), both ways, and prints
// each run and the invariant check to w.
func run(w io.Writer, viewers int) error {
	spec := scenarios.Spec{
		Topo:     scenarios.TopoSpec{Family: "fig1"},
		Workload: "fig2",
		Duration: 60 * time.Second,
		Viewers:  viewers,
	}
	var reps []*scenarios.Report
	for _, withCtrl := range []bool{true, false} {
		label := "WITH Fibbing controller"
		if !withCtrl {
			label = "WITHOUT controller"
		}
		var sim *controller.Sim
		rep, err := scenarios.RunWatched(spec, withCtrl, func(s *controller.Sim) { sim = s })
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		fmt.Fprintf(w, "==== %s, %d viewers ====\n", label, rep.Sessions)

		fmt.Fprintln(w, "link throughput (byte/s), as in the paper's Figure 2:")
		var series []*metrics.Series
		for _, l := range [][2]string{{topo.Fig1A, topo.Fig1R1}, {topo.Fig1B, topo.Fig1R2}, {topo.Fig1B, topo.Fig1R3}} {
			s, err := sim.Net.SeriesBetween(l[0], l[1])
			if err != nil {
				return err
			}
			series = append(series, s)
		}
		if err := metrics.SeriesTable(5*time.Second, series...).Render(w); err != nil {
			return err
		}

		for _, d := range rep.Decisions {
			fmt.Fprintf(w, "controller @%-4v: %s (%d lies) — %s\n", d.At, d.Strategy, d.Lies, d.Detail)
		}

		agg := video.AggregateQoE(sim.QoE())
		stats := sim.Net.Stats()
		fmt.Fprintf(w, "\nplayback: %d sessions, %d smooth, %d stalls, mean rebuffer %.1f%% (worst %.1f%%)\n",
			agg.Sessions, agg.SmoothSessions, agg.TotalStalls,
			100*agg.MeanRebuffer, 100*agg.WorstRebuffer)
		fmt.Fprintf(w, "delivered %.1f of 31.0 Mbit/s demanded; max link utilisation %.2f; %d live lies; %d flows in %d aggregates\n\n",
			sim.Net.TotalThroughput()/1e6, rep.FinalUtilisation, rep.Lies, stats.Flows, stats.Aggregates)
	}
	if v := scenarios.Violations(spec, reps[0], reps[1]); len(v) > 0 {
		return fmt.Errorf("%s violates its invariants: %v", reps[0].Scenario, v)
	}
	fmt.Fprintf(w, "%s: every scenario invariant holds\n", reps[0].Scenario)
	return nil
}
