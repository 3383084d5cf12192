// Command fiblab runs the scenario-matrix stress harness — a named cell,
// an ad-hoc spec, the whole matrix, or the failover, QoE and scaling
// cells — and reports each cell as text or JSON.
//
//	fiblab -list                    # print the matrix cells
//	fiblab -run ring/surge          # one cell, controller on and off
//	fiblab -matrix -json > out.json # the full matrix, machine-readable
//	fiblab -topo waxman -size 20 -seed 4 -workload flash -failure flap
//	fiblab -topo fig1 -workload fig2 -duration 60s  # the paper's demo
//	fiblab -failover | -qoe | -scale
//	fiblab -run ring/surge -viewers 100000 -capacity 10G
//
// One mode flag picks the cells; every other flag overrides the same Spec
// field of every cell in every mode, or is a usage error where the mode's
// own arms set that field (-bfd under -failover).
// Exit status: 1 when a cell violates its invariants (fiblab doubles as a
// CI gate), 2 on a usage error.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the command line: the Spec fields to lay over every cell's own (zero keeps it), and how to print.
type options struct {
	over                scenarios.Spec
	jsonOut, cacheStats bool
}

// apply is the one place a flag reaches a cell's Spec.
func (o options) apply(s scenarios.Spec) scenarios.Spec {
	s.Duration = cmp.Or(o.over.Duration, s.Duration)
	s.Viewers = cmp.Or(o.over.Viewers, s.Viewers)
	s.Topo.Capacity = cmp.Or(o.over.Topo.Capacity, s.Topo.Capacity)
	s.BFD = s.BFD || o.over.BFD
	return s
}

// view is what the loop needs of a finished cell besides its JSON value:
// the text block, the violated invariants, the report -cache-stats prints.
type view struct {
	render     func(*strings.Builder)
	violations []string
	stats      *scenarios.Report
}

// comparisonView is the view of an on/off cell (matrix, ad hoc or QoE).
func comparisonView(c *scenarios.Comparison) view { return view{c.Render, c.Violations, c.On} }

// scaleResult is one scaling cell's cost record.
type scaleResult struct {
	Report    *scenarios.Report `json:"report"`
	WallClock float64           `json:"wall_clock_seconds"`
}

// runScale runs a scaling cell once, controller on: it measures cost, so there is no counterfactual arm.
func runScale(s scenarios.Spec) (scaleResult, error) {
	start := time.Now()
	rep, err := scenarios.Run(s, true)
	return scaleResult{rep, time.Since(start).Seconds()}, err
}

func (r scaleResult) view() view {
	rep := r.Report
	return view{func(b *strings.Builder) {
		fmt.Fprintf(b, "%-24s wall=%8.2fs events=%9d spf=%d inc/%d full reshare=%d inc/%d full sessions=%d aggs=%d settled=%.2f lies=%d\n",
			rep.Scenario, r.WallClock, rep.Events, rep.SPFIncrementalRuns, rep.SPFFullRuns, rep.ReshareIncremental, rep.ReshareFull, rep.Sessions, rep.Aggregates,
			rep.SettledUtilisation, rep.Lies)
	}, nil, rep}
}

// run is main without the process: it parses args, picks the mode's cells
// and arms, and returns the exit status of the loop over them.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fiblab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the matrix cells and exit")
		runCell  = fs.String("run", "", "run one matrix cell by name (e.g. ring/surge)")
		matrix   = fs.Bool("matrix", false, "run the full scenario matrix")
		scale    = fs.Bool("scale", false, "run the large-topology scaling cells (controller on), reporting wall-clock and events executed")
		failover = fs.Bool("failover", false, "run the fast-failover cells: each compares BFD liveness detection against SNMP-poll failure detection")
		qoeCells = fs.Bool("qoe", false, "run the QoE cells: skewed crowds that saturate every routing, controller on against plain IGP on the same schedule")
		topoF    = fs.String("topo", "", "ad-hoc run: topology family (fig1, abilene, fattree, ring, grid, waxman, random)")
		size     = fs.Int("size", 0, "ad-hoc run: topology size knob")
		seed     = fs.Int64("seed", 0, "ad-hoc run: seed")
		workload = fs.String("workload", "surge", "ad-hoc run: workload (surge, flash, ramp, dual, steady, skew, or fig2: the paper's demo, -topo fig1 only, with -duration 60s)")
		failure  = fs.String("failure", "", "ad-hoc run: failure schedule (hotlink, flap, cascade)")
		o        options
	)
	fs.BoolVar(&o.jsonOut, "json", false, "emit JSON instead of text")
	fs.BoolVar(&o.cacheStats, "cache-stats", false, "after each cell, print the planner amortisation telemetry: plan-cache hit/miss, LP solves, reshare component count, and per-strategy propose timings (always present in -json output)")
	fs.DurationVar(&o.over.Duration, "duration", 0, "override the scenario duration")
	fs.IntVar(&o.over.Viewers, "viewers", 0, "scale the crowd to about this many sessions (exact for surge; same total demand, finer slices; 0 keeps the default sizing)")
	fs.BoolVar(&o.over.BFD, "bfd", false, "attach BFD-style per-link liveness sessions (50ms hellos, detect multiplier 3) feeding the controller; a usage error with -failover")
	// Resolved while the flags parse: a typo is a usage error, not a per-cell failure.
	fs.Func("capacity", "uniform link capacity, e.g. 100M, 1G or 10G (unset keeps the cell's own)", func(v string) (err error) {
		if o.over.Topo.Capacity, err = topo.ParseBits(v); err == nil && o.over.Topo.Capacity <= 0 {
			err = errors.New("capacity must be positive")
		}
		return err
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "fiblab: "+format+"\n", a...)
		return 2
	}
	modes := []bool{*list, *runCell != "", *topoF != "", *matrix, *failover, *qoeCells, *scale}
	if len(slices.DeleteFunc(modes, func(on bool) bool { return !on })) != 1 {
		return usage("pick exactly one of -list, -run, -topo, -matrix, -failover, -qoe, -scale (-h lists every flag)")
	}

	var cells []scenarios.Spec
	switch {
	case *list:
		for _, s := range scenarios.MatrixSpecs() {
			fmt.Fprintln(stdout, s.Name)
		}
		return 0
	case *failover && o.over.BFD:
		return usage("-bfd with -failover does not apply: the mode's own arms set that field")
	case *failover:
		return loop(scenarios.FailoverSpecs(), o, scenarios.CompareFailover,
			func(c *scenarios.FailoverComparison) view { return view{c.Render, c.Violations, c.Fast} }, stdout, stderr)
	case *qoeCells:
		return loop(scenarios.QoESpecs(), o, scenarios.CompareQoE, comparisonView, stdout, stderr)
	case *scale:
		return loop(scenarios.ScaleSpecs(), o, runScale, scaleResult.view, stdout, stderr)
	case *matrix:
		cells = scenarios.MatrixSpecs()
	case *topoF != "":
		adhoc := scenarios.TopoSpec{Family: *topoF, Size: *size, Seed: *seed}
		cells = []scenarios.Spec{{Topo: adhoc, Workload: *workload, Failure: *failure, Seed: *seed}}
	default:
		s, ok := scenarios.SpecByName(*runCell)
		if !ok {
			return usage("no matrix cell %q (see -list)", *runCell)
		}
		cells = []scenarios.Spec{s}
	}
	return loop(cells, o, scenarios.Compare, comparisonView, stdout, stderr)
}

// loop is the one way fiblab runs cells: lay the overrides over each spec,
// run it through the mode's arms, render it or keep it for the JSON array,
// and turn violated invariants into the exit status.
func loop[C any](cells []scenarios.Spec, o options, run func(scenarios.Spec) (C, error), see func(C) view, stdout, stderr io.Writer) int {
	var results []C
	failed := false
	start := time.Now()
	for _, spec := range cells {
		c, err := run(o.apply(spec))
		if err != nil {
			fmt.Fprintf(stderr, "fiblab: %v\n", err)
			return 1
		}
		results = append(results, c)
		v := see(c)
		failed = failed || len(v.violations) > 0
		if !o.jsonOut {
			var b strings.Builder
			v.render(&b)
			if o.cacheStats {
				v.stats.RenderCacheStats(&b, "  ")
			}
			fmt.Fprint(stdout, b.String())
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "fiblab: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "%d cells in %.1fs\n", len(results), time.Since(start).Seconds())
	}
	if failed {
		fmt.Fprintln(stderr, "fiblab: invariant violations (see above)")
		return 1
	}
	return 0
}
