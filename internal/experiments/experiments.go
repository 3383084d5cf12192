// Package experiments regenerates every figure and quantitative claim of
// the paper. Each experiment returns a Result with a rendered table and
// machine-checkable values; cmd/experiments prints them and exits 1 when a
// paper-pinned check fails, the fig1/fig2 demo cell's invariants included.
package experiments

import (
	"fmt"
	"io"
	"maps"
	"net/netip"
	"slices"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

// Result is one reproduced figure/table.
type Result struct {
	ID      string // e.g. "fig1a"
	Caption string
	Table   *metrics.Table
	Notes   []string
	// Check is non-empty when a paper-pinned value failed to reproduce.
	Check []string
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) failf(format string, args ...any) {
	r.Check = append(r.Check, fmt.Sprintf(format, args...))
}

// Render writes the result in the experiment report format.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Caption)
	if r.Table != nil {
		_ = r.Table.Render(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Check {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	fmt.Fprintln(w)
}

// Fig1a reproduces Figure 1a: the IGP shortest paths from A and B towards
// the blue prefix overlap along B-R2-C.
func Fig1a() (*Result, error) {
	tp := topo.Fig1(topo.Fig1Opts{})
	g := spf.FromTopology(tp)
	res := &Result{ID: "fig1a", Caption: "IGP shortest paths overlap on B-R2-C"}
	res.Table = metrics.NewTable("router", "shortest path to blue", "cost")
	c := tp.MustNode(topo.Fig1C)
	for _, name := range []string{"A", "B", "R1", "R2", "R3", "R4"} {
		src := tp.MustNode(name)
		tree := spf.Compute(g, src, nil)
		paths := tree.Paths(c, 4)
		for _, p := range paths {
			res.Table.AddRow(name, spf.FormatPath(tp, p), tree.Dist[c])
		}
	}
	aTree := spf.Compute(g, tp.MustNode("A"), nil)
	if got := spf.FormatPath(tp, aTree.Paths(c, 1)[0]); got != "A>B>R2>C" {
		res.failf("A's path = %s, want A>B>R2>C", got)
	}
	res.note("paths from A and B share B>R2>C, as in the paper's Figure 1a")
	return res, nil
}

// Fig1b reproduces Figure 1b: demands of 100 relative units at both A and
// B load A-B with 100 and B-R2, R2-C with 200 (the overload).
func Fig1b() (*Result, error) {
	tp := topo.Fig1(topo.Fig1Opts{})
	demands := topo.Fig1Demands(tp, 100)
	loads, err := te.IGPLoads(tp, demands)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig1b", Caption: "pre-Fibbing loads: the surge overloads B-R2-C", Table: loadTable(tp, loads)}
	max := te.MaxUtilOfLoads(tp, loads) * topo.DefaultFig1Capacity
	if max != 200 {
		res.failf("max load = %v, want 200", max)
	}
	res.note("max relative load 200 on B-R2 and R2-C (paper: overloaded links)")
	return res, nil
}

// loadTable renders per-link relative loads, one row per loaded link.
func loadTable(tp *topo.Topology, loads map[topo.LinkID]float64) *metrics.Table {
	t := metrics.NewTable("link", "relative load")
	for _, line := range te.FormatLoads(tp, loads) {
		link, load, _ := strings.Cut(line, ": ")
		t.AddRow(link, load)
	}
	return t
}

// Fig1c reproduces Figure 1c: the augmentation computes exactly the
// paper's lies — fB at B (cost 2, via R3) and two fA at A (cost 3, via R1).
func Fig1c() (*Result, error) {
	tp := topo.Fig1(topo.Fig1Opts{})
	dag := fibbing.Fig1DAG(tp)
	aug, err := fibbing.AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig1c", Caption: "fake nodes computed for the Figure 1c requirement"}
	res.Table = metrics.NewTable("fake node", "attached to", "resolves to", "cost")
	for i, l := range aug.Lies {
		res.Table.AddRow(fmt.Sprintf("f%d", i+1), tp.Name(l.Attach), tp.Name(l.Via), l.Cost)
	}
	if aug.LieCount() != 3 {
		res.failf("lie count = %d, want 3", aug.LieCount())
	}
	if err := fibbing.Verify(tp, topo.Fig1BluePrefixName, aug.Lies, dag); err != nil {
		res.failf("verification: %v", err)
	}
	res.note("3 lies: one fB (total cost 2 via R3), two fA (total cost 3 via R1) — matches the paper")
	return res, nil
}

// Fig1d reproduces Figure 1d: with the lies installed, the loads become
// 33.3 on A-B and 66.7 on every other used link.
func Fig1d() (*Result, error) {
	tp := topo.Fig1(topo.Fig1Opts{})
	demands := topo.Fig1Demands(tp, 100)
	dag := fibbing.Fig1DAG(tp)
	aug, err := fibbing.AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		return nil, err
	}
	loads, err := te.LoadsWithLies(tp,
		map[string][]fibbing.Lie{topo.Fig1BluePrefixName: aug.Lies}, demands)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig1d", Caption: "post-Fibbing loads: uneven splits cut the max load to 66.7", Table: loadTable(tp, loads)}
	max := slices.Max(slices.Collect(maps.Values(loads)))
	if diff := max - 200.0/3; diff > 1e-6 || diff < -1e-6 {
		res.failf("max load = %v, want 66.67", max)
	}
	res.note("max relative load drops 200 -> 66.7 while total delivered traffic is unchanged")
	return res, nil
}

// demoArm is one run of the paper's demo cell: its report, and the
// finished simulation the series and QoE tables read.
type demoArm struct {
	rep *scenarios.Report
	sim *controller.Sim
}

// demo is the paper's Figure 2 demo as a scenario cell — the Figure 1
// network under flashcrowd.Fig2Schedule — run once per arm, with the
// matrix invariants between the two runs. Every Figure 2 result reads it.
type demo struct {
	spec       scenarios.Spec
	on, off    demoArm
	violations []string
}

func runDemo(until time.Duration) (*demo, error) {
	d := &demo{spec: scenarios.Spec{Topo: scenarios.TopoSpec{Family: "fig1"}, Workload: "fig2", Duration: until}}
	for _, a := range []*demoArm{&d.on, &d.off} {
		rep, err := scenarios.RunWatched(d.spec, a == &d.on, func(s *controller.Sim) {
			a.sim = s
			series(s, fig2Links...) // the data plane records only the series asked for
			series(s, deliveryLinks...)
		})
		if err != nil {
			return nil, err
		}
		a.rep = rep
	}
	d.violations = scenarios.Violations(d.spec, d.on.rep, d.off.rep)
	return d, nil
}

// series returns the throughput series of the named links, asking the
// data plane to record them if no one has yet.
func series(sim *controller.Sim, links ...[2]string) []*metrics.Series {
	out := make([]*metrics.Series, len(links))
	for i, l := range links {
		out[i] = sim.Net.Series(sim.Topo.MustLinkBetween(l[0], l[1]).ID)
	}
	return out
}

// fig2Links are the links Figure 2 plots.
var fig2Links = [][2]string{{topo.Fig1A, topo.Fig1R1}, {topo.Fig1B, topo.Fig1R2}, {topo.Fig1B, topo.Fig1R3}}

// deliveryLinks are the links into the destination C: their sum is the
// delivered throughput reactionLatency reads.
var deliveryLinks = [][2]string{{topo.Fig1R2, topo.Fig1C}, {topo.Fig1R3, topo.Fig1C}, {topo.Fig1R4, topo.Fig1C}}

// fig2 reproduces Figure 2: link throughput over time under the demo's
// flow schedule, in one of the demo's arms.
func (d *demo) fig2(a demoArm) *Result {
	mode := "with"
	if !a.rep.Controller {
		mode = "without"
	}
	res := &Result{
		ID:      "fig2-" + mode,
		Caption: fmt.Sprintf("throughput over time (%s Fibbing controller), byte/s", mode),
	}
	res.Table = metrics.SeriesTable(5*time.Second, series(a.sim, fig2Links...)...)
	for _, dec := range a.rep.Decisions {
		res.note("t=%-4v %-18s lies=%d  %s", dec.At, dec.Strategy, dec.Lies, dec.Detail)
	}
	util := a.rep.FinalUtilisation
	res.note("final max utilisation %.2f, live lies %d, delivered %.1f Mbit/s",
		util, a.rep.Lies, a.sim.Net.TotalThroughput()/1e6)
	if a.rep.Controller {
		if a.rep.Lies != 3 {
			res.failf("live lies = %d, want 3", a.rep.Lies)
		}
		if util > 0.95 {
			res.failf("max utilisation %v: congestion not prevented", util)
		}
		for _, v := range d.violations {
			res.failf("%s: %s", d.spec.Name, v)
		}
	} else if util < 0.99 {
		res.failf("without controller the bottleneck should saturate (got %v)", util)
	}
	return res
}

// qoe reproduces the demo's observable: smooth playback with the
// controller, stutter without.
func (d *demo) qoe() *Result {
	aw := video.AggregateQoE(d.on.sim.QoE())
	ao := video.AggregateQoE(d.off.sim.QoE())
	res := &Result{ID: "demo-qoe", Caption: "video QoE with vs. without the Fibbing controller"}
	res.Table = metrics.NewTable("controller", "sessions", "smooth", "stalls", "mean rebuffer %", "worst rebuffer %", "mean startup")
	res.Table.AddRow("fibbing", aw.Sessions, aw.SmoothSessions, aw.TotalStalls,
		100*aw.MeanRebuffer, 100*aw.WorstRebuffer, aw.MeanStartup.String())
	res.Table.AddRow("disabled", ao.Sessions, ao.SmoothSessions, ao.TotalStalls,
		100*ao.MeanRebuffer, 100*ao.WorstRebuffer, ao.MeanStartup.String())
	if aw.MeanRebuffer > 0.01 {
		res.failf("with controller: rebuffer %.3f, want ~0", aw.MeanRebuffer)
	}
	if ao.MeanRebuffer < 0.1 {
		res.failf("without controller: rebuffer %.3f, want substantial", ao.MeanRebuffer)
	}
	res.note("the paper reports: playbacks smooth with Fibbing, stuttering without")
	return res
}

// teCase is one demand set on one topology for the §2 comparisons.
type teCase struct {
	name    string
	t       *topo.Topology
	demands []topo.Demand
}

// teCases is Figure 1 under an 8 Mbit/s surge at A and B, then random
// topologies of the given size (seeds 1-3) carrying that many random
// demands each.
func teCases(nodes, demands int) []teCase {
	fig1 := topo.Fig1(topo.Fig1Opts{})
	cases := []teCase{{"fig1", fig1, topo.Fig1Demands(fig1, 8e6)}}
	for seed := int64(1); seed <= 3; seed++ {
		tp := topo.RandomConnected(topo.RandomOpts{
			Nodes: nodes, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: seed,
		})
		cases = append(cases, teCase{
			fmt.Sprintf("rand%d-seed%d", nodes, seed), tp,
			topo.RandomDemands(tp, demands, 1e6, 4e6, seed),
		})
	}
	return cases
}

// OverheadVsRSVPTE quantifies the §2 comparison: Fibbing lies vs RSVP-TE
// tunnels for the same demand sets.
func OverheadVsRSVPTE() (*Result, error) {
	res := &Result{ID: "overhead-rsvpte", Caption: "control/data-plane overhead: Fibbing vs MPLS RSVP-TE"}
	res.Table = metrics.NewTable("topology", "fib lies", "fib LSA bytes", "fib encap B/pkt",
		"tunnels", "signal msgs", "state entries", "mpls encap B/pkt")
	for _, c := range teCases(15, 6) {
		cmp, err := te.CompareOverheads(c.t, c.demands)
		if err != nil {
			res.note("%s: %v (skipped)", c.name, err)
			continue
		}
		res.Table.AddRow(c.name, cmp.FibbingLies, cmp.FibbingLSABytes, cmp.FibbingEncapBytes,
			cmp.Tunnels, cmp.SignalingMessages, cmp.StateEntries, cmp.TunnelEncapBytes)
		if cmp.FibbingEncapBytes != 0 {
			res.failf("%s: fibbing must not encapsulate", c.name)
		}
	}
	res.note("Fibbing forwards plain IP (0 encap bytes); RSVP-TE pays per-packet labels plus per-hop signalling and state")
	return res, nil
}

// MinMaxOptimality quantifies the §2 claim that Fibbing can realise the
// optimal min-max link utilisation, against ECMP-only and weight search.
func MinMaxOptimality() (*Result, error) {
	res := &Result{ID: "minmax-optimality", Caption: "max link utilisation: IGP ECMP vs weight search vs greedy vs LP optimum vs Fibbing"}
	res.Table = metrics.NewTable("topology", "igp ecmp", "weight-opt", "greedy", "lp optimum", "fibbing realised", "lies", "weight changes")
	for _, c := range teCases(12, 5) {
		igp, err := te.ECMPOnlyUtilisation(c.t, c.demands)
		if err != nil {
			return nil, err
		}
		w, err := te.OptimizeWeights(c.t, c.demands, 10, 3)
		if err != nil {
			return nil, err
		}
		gr, err := te.SolveGreedy(c.t, c.demands, 8)
		if err != nil {
			return nil, err
		}
		fb, err := te.RealizeMinMax(c.t, c.demands)
		if err != nil {
			res.note("%s: fibbing realisation failed: %v", c.name, err)
			continue
		}
		res.Table.AddRow(c.name, igp, w.MaxUtilisation, gr.MaxUtilisation, fb.Optimal, fb.Realised, fb.Lies, w.WeightChanges)
		if fb.Optimal > igp+1e-6 {
			res.failf("%s: LP worse than IGP", c.name)
		}
		if fb.Realised < fb.Optimal-1e-6 {
			res.failf("%s: realised better than optimal (impossible)", c.name)
		}
		if gr.MaxUtilisation < fb.Optimal-1e-6 {
			res.failf("%s: greedy beats the LP optimum (impossible)", c.name)
		}
	}
	res.note("fibbing reaches the LP optimum up to ECMP weight quantisation; weight search cannot express uneven splits and changes many devices")
	return res, nil
}

// WeightChangeVsLie quantifies the §1 claim that adapting link weights is
// slow and network-wide, while one lie is a single flooded LSA.
func WeightChangeVsLie() (*Result, error) {
	res := &Result{ID: "weightchange-vs-lie", Caption: "IGP cost of a weight change vs a Fibbing lie (Fig1)"}
	res.Table = metrics.NewTable("action", "protocol packets", "protocol bytes", "SPF runs", "converged in")

	run := func(action string, f func(d *ospf.Domain, tp *topo.Topology) error) error {
		tp := topo.Fig1(topo.Fig1Opts{})
		d := ospf.NewDomain(tp, event.NewScheduler(), ospf.Config{})
		d.Start()
		if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
			return err
		}
		before := d.Stats()
		start := d.Scheduler().Now()
		if err := f(d, tp); err != nil {
			return err
		}
		end, err := d.RunUntilConverged(start + 120*time.Second)
		if err != nil {
			return err
		}
		after := d.Stats()
		res.Table.AddRow(action,
			after.PacketsSent-before.PacketsSent,
			after.BytesSent-before.BytesSent,
			after.SPFRuns-before.SPFRuns,
			(end - start).String())
		return nil
	}

	if err := run("weight change B-R2 (traditional TE step)", func(d *ospf.Domain, tp *topo.Topology) error {
		return d.SetLinkWeight(tp.MustNode("B"), tp.MustNode("R2"), 3)
	}); err != nil {
		return nil, err
	}
	if err := run("inject lie fB (Fibbing)", func(d *ospf.Domain, tp *topo.Topology) error {
		lie := fibbing.Lie{Prefix: topo.Fig1BluePrefix, Attach: tp.MustNode("B"), Via: tp.MustNode("R3"), Cost: 2}
		return d.Router(tp.MustNode("R3")).OriginateForeign(lie.ToLSA(ospf.ControllerIDBase, 1, 1))
	}); err != nil {
		return nil, err
	}
	res.note("a weight change re-floods two Router LSAs and shifts transit routing network-wide; a lie adds one LSA and affects exactly one (router, destination)")
	res.note("in deployment, weight reconfiguration additionally needs per-device CLI/NETCONF sessions, not modelled here")
	return res, nil
}

// PerDestinationIsolation demonstrates §2's per-destination granularity:
// lies for the blue prefix leave routing for a second (green) prefix
// untouched on every router.
func PerDestinationIsolation() (*Result, error) {
	tp := topo.Fig1(topo.Fig1Opts{})
	tp.AddPrefix(greenPrefix(), "green", topo.Attachment{Node: tp.MustNode("R4")})
	res := &Result{ID: "per-destination", Caption: "lies for blue leave the green prefix's routing untouched"}
	res.Table = metrics.NewTable("router", "blue before", "blue after", "green before", "green after")

	blueBefore, err := fibbing.IGPView(tp, topo.Fig1BluePrefixName)
	if err != nil {
		return nil, err
	}
	greenBefore, err := fibbing.IGPView(tp, "green")
	if err != nil {
		return nil, err
	}
	dag := fibbing.Fig1DAG(tp)
	aug, err := fibbing.AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		return nil, err
	}
	blueAfter, err := fibbing.Evaluate(tp, topo.Fig1BluePrefixName, aug.Lies)
	if err != nil {
		return nil, err
	}
	// Green is evaluated with no lies of its own; the blue lies are
	// per-destination and cannot appear in green's computation — this is
	// Fibbing's per-destination granularity by construction, and the
	// protocol-level integration test confirms the LSDB behaves the same.
	greenAfter, err := fibbing.Evaluate(tp, "green", nil)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"A", "B", "R1", "R2", "R3"} {
		n := tp.MustNode(name)
		res.Table.AddRow(name,
			fmtNH(tp, blueBefore[n]), fmtNH(tp, blueAfter[n]),
			fmtNH(tp, greenBefore[n]), fmtNH(tp, greenAfter[n]))
		if !greenBefore[n].NextHops.Equal(greenAfter[n].NextHops) {
			res.failf("%s: green changed", name)
		}
	}
	res.note("per-destination programming: A moves to a 1:2 split for blue while green keeps single-path routing")
	return res, nil
}

func greenPrefix() netip.Prefix {
	return netip.MustParsePrefix("10.77.0.0/16")
}

// reactionLatency quantifies the demo's "quickly removing the congestion"
// claim: for each wave of the Figure 2 timeline, how long from the wave's
// arrival to the controller's decision, and to full delivery of the
// demand. Without the controller, the third wave never recovers.
func (d *demo) reactionLatency() *Result {
	res := &Result{ID: "reaction-latency", Caption: "time from surge to reaction to full delivery (Fig2 timeline)"}
	res.Table = metrics.NewTable("controller", "wave", "at", "demand Mbit/s", "decision at", "full delivery at")

	until := d.spec.Duration
	waves := flashcrowd.Fig2Schedule(0)
	for _, a := range []demoArm{d.on, d.off} {
		withCtrl := a.rep.Controller
		// Delivered-to-destination = sum of the three C-facing links.
		delivered := series(a.sim, deliveryLinks...)
		deliveredAt := func(t time.Duration) float64 {
			sum := 0.0
			for _, s := range delivered {
				sum += s.At(t) * 8 // byte/s -> bit/s
			}
			return sum
		}
		name := "fibbing"
		if !withCtrl {
			name = "disabled"
		}
		demand := 0.0 // total offered bit/s after the wave
		for i, w := range waves {
			demand += float64(w.Flows) * w.Rate
			windowEnd := until
			if i+1 < len(waves) {
				windowEnd = waves[i+1].At
			}
			decision := "-"
			for _, dec := range a.rep.Decisions {
				if dec.At >= w.At && dec.At < windowEnd {
					decision = dec.At.String()
					break
				}
			}
			recovery := "never"
			for t := w.At; t <= until; t += time.Second {
				if deliveredAt(t) >= 0.99*demand {
					recovery = t.String()
					break
				}
			}
			res.Table.AddRow(name, i+1, w.At.String(), demand/1e6, decision, recovery)
			if withCtrl && recovery == "never" {
				res.failf("wave %d never fully delivered with the controller", i+1)
			}
			if !withCtrl && i == 2 && recovery != "never" {
				res.failf("wave 3 recovered without the controller (impossible)")
			}
		}
	}
	res.note("the controller restores full delivery within seconds of each surge (monitor poll + SPF); without it the third wave starves forever")
	return res
}

// ABRExtension is the "what if the application adapts?" extension: the
// Figure 2 timeline replayed with DASH-style adaptive-bitrate players.
// ABR avoids most stalls on its own by downshifting quality — Fibbing's
// value then shows up as delivered bitrate instead of stall counts. The
// scenario cells have no adaptive players, so each arm attaches a pool to
// a plain simulation itself.
func ABRExtension(until time.Duration) (*Result, error) {
	res := &Result{ID: "abr-extension", Caption: "Figure 2 with adaptive-bitrate players (extension)"}
	res.Table = metrics.NewTable("controller", "sessions", "mean bitrate kbit/s", "top-rung %", "stalls", "switches")
	bitrate := map[bool]float64{} // mean delivered bitrate by controller on/off
	for _, withCtrl := range []bool{true, false} {
		sim, err := controller.NewSim(controller.SimOpts{WithCtrl: withCtrl})
		if err != nil {
			return nil, err
		}
		pool := video.NewABRSessionPool(sim.Sched, sim.Net, video.ABRConfig{})
		var sessions []*video.ABRSimSession
		sim.Runner.OnFlowStarted = func(id netsim.FlowID, _ float64) {
			sessions = append(sessions, pool.Attach(id))
		}
		// The waves run at the ladder's top rung so the controller's
		// demand model plans for full-quality delivery.
		top := video.DefaultLadder[len(video.DefaultLadder)-1]
		if err := sim.Runner.Schedule(flashcrowd.Fig2Schedule(top)); err != nil {
			return nil, err
		}
		sim.Run(until)
		qs := make([]video.ABRQoE, len(sessions))
		for i, s := range sessions {
			qs[i] = s.QoE()
		}
		agg := video.AggregateABRQoE(qs)
		bitrate[withCtrl] = agg.MeanBitrate
		name := "fibbing"
		if !withCtrl {
			name = "disabled"
		}
		res.Table.AddRow(name, agg.Sessions, agg.MeanBitrate/1e3,
			100*agg.TopRungShare, agg.TotalStalls, agg.Switches)
	}
	if bitrate[true] <= bitrate[false]*1.3 {
		res.failf("fibbing should lift ABR bitrate substantially: %0.f vs %0.f", bitrate[true], bitrate[false])
	}
	res.note("with ABR the congestion shows as quality loss, not stalls; Fibbing lifts the mean delivered bitrate by ~%.1fx", bitrate[true]/bitrate[false])
	return res, nil
}

// All runs every experiment in paper order. The Figure 2 results share
// one demo run per arm.
func All(fig2Duration time.Duration) ([]*Result, error) {
	if fig2Duration <= 0 {
		fig2Duration = 60 * time.Second
	}
	d, err := runDemo(fig2Duration)
	if err != nil {
		return nil, err
	}
	type gen func() (*Result, error)
	done := func(r *Result) gen { return func() (*Result, error) { return r, nil } }
	gens := []gen{
		Fig1a, Fig1b, Fig1c, Fig1d,
		done(d.fig2(d.on)), done(d.fig2(d.off)), done(d.qoe()),
		OverheadVsRSVPTE,
		MinMaxOptimality,
		WeightChangeVsLie,
		PerDestinationIsolation,
		func() (*Result, error) { return ABRExtension(fig2Duration) },
		done(d.reactionLatency()),
	}
	var out []*Result
	for _, g := range gens {
		r, err := g()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Report renders all results into one experiment report.
func Report(results []*Result) string {
	var b strings.Builder
	for _, r := range results {
		r.Render(&b)
	}
	return b.String()
}

func fmtNH(tp *topo.Topology, v fibbing.RouteView) string {
	if v.Local {
		return "local"
	}
	if len(v.NextHops) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(v.NextHops))
	for _, n := range slices.Sorted(maps.Keys(v.NextHops)) {
		parts = append(parts, fmt.Sprintf("%s:%d", tp.Name(n), v.NextHops[n]))
	}
	return strings.Join(parts, ",")
}
