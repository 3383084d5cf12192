// Command fiblab runs the scenario-matrix stress harness: a named
// scenario cell, an ad-hoc spec, or the whole matrix, with the Fibbing
// controller on and off, and reports the comparison as text or JSON.
//
// Usage:
//
//	fiblab -list                    # print the matrix cells
//	fiblab -run ring/surge          # one cell, both controller modes
//	fiblab -matrix                  # the full matrix
//	fiblab -topo waxman -size 20 -seed 4 -workload flash -failure flap
//	fiblab -matrix -json > out.json # machine-readable reports
//	fiblab -run ring/surge -strategies=localecmp,ksp
//	                                # restrict the reaction-strategy set
//	fiblab -run ring/surge -viewers 100000
//	                                # same demand sliced into 100k sessions
//	fiblab -run abilene/surge -capacity 10G
//	                                # the same relative problem at 10 Gbit/s
//	fiblab -scale                   # scaling cells (Gbit-capacity defaults)
//	fiblab -failover                # BFD+standby vs SNMP failover cells
//	fiblab -qoe                     # qoe vs util score-mode comparison cells
//	fiblab -run ring/surge -score-mode qoe
//	                                # plan for fewer stalls, not cooler links
//	fiblab -topo fig1 -workload steady -failure hotlink -bfd -standby-k 3
//	                                # ad-hoc run with fast failover enabled
//	fiblab -run ring/surge -cache-stats
//	                                # plus planner amortisation telemetry
//
// The exit status is non-zero when any executed cell violates its
// invariants, so fiblab doubles as a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/topo"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the matrix cells and exit")
		run      = flag.String("run", "", "run one matrix cell by name (e.g. ring/surge)")
		matrix   = flag.Bool("matrix", false, "run the full scenario matrix")
		scale    = flag.Bool("scale", false, "run the large-topology scaling cells (controller on), reporting wall-clock and events executed")
		jsonOut  = flag.Bool("json", false, "emit JSON instead of text")
		duration = flag.Duration("duration", 0, "override the scenario duration")
		strats   = flag.String("strategies", "", "comma-separated reaction strategies (e.g. localecmp,ksp,lpoptimal); empty keeps the stock set")
		scoreMd  = flag.String("score-mode", "", "planner scoring objective: util (default), qoe (predicted stall-seconds first) or blended")

		topoF    = flag.String("topo", "", "ad-hoc run: topology family (fig1, abilene, fattree, ring, grid, waxman, random)")
		capacity = flag.String("capacity", "", "uniform link capacity, e.g. 1G or 10G (ad-hoc runs and overriding matrix/scale cells; empty keeps the cell's own)")
		size     = flag.Int("size", 0, "ad-hoc run: topology size knob")
		seed     = flag.Int64("seed", 0, "ad-hoc run: seed")
		workload = flag.String("workload", "surge", "ad-hoc run: workload (surge, flash, ramp, dual, steady, skew)")
		failure  = flag.String("failure", "", "ad-hoc run: failure schedule (hotlink, flap)")
		viewers  = flag.Int("viewers", 0, "scale the crowd to about this many sessions (exact for surge; same total demand, finer slices; 0 keeps the default sizing)")
		workers  = flag.Int("workers", 0, "simulation worker-pool width: 0 uses GOMAXPROCS, 1 forces the sequential core (output is byte-identical either way)")

		cacheStats = flag.Bool("cache-stats", false, "after each cell, print the planner amortisation telemetry: plan-cache hit/miss, warm-LP warm/cold/fallback solves, reshare component count, and per-strategy propose timings (always present in -json output)")

		failover = flag.Bool("failover", false, "run the fast-failover cells: each compares BFD+standby against SNMP-poll failure detection")
		qoeCells = flag.Bool("qoe", false, "run the score-mode comparison cells: each runs qoe scoring against util scoring (and plain IGP) on the same schedule")
		bfd      = flag.Bool("bfd", false, "attach BFD-style per-link liveness sessions (50ms hellos, detect multiplier 3) feeding the controller")
		standbyK = flag.Int("standby-k", 0, "with -bfd, precompute failover plans for the K busiest links during controller idle time (0 disables the cache)")
	)
	flag.Parse()

	// Parse the capacity override once (topo.ParseBits understands the
	// 1G/10G/100M suffix forms FormatBits emits).
	capOverride := 0.0
	if *capacity != "" {
		v, err := topo.ParseBits(*capacity)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "fiblab: bad -capacity %q (want e.g. 100M, 1G, 10G)\n", *capacity)
			os.Exit(2)
		}
		capOverride = v
	}

	// Validate the score mode up front so a typo is a usage error, not a
	// per-cell runtime failure.
	if _, err := controller.ParseScoreMode(*scoreMd); err != nil {
		fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
		os.Exit(2)
	}

	// Resolve the strategy set once, up front: a bad name is a usage
	// error, and the canonical names feed Spec.Strategies.
	var strategyNames []string
	if *strats != "" {
		set, err := controller.ParseStrategies(*strats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(2)
		}
		strategyNames = controller.StrategyNames(set)
	}

	if *list {
		for _, s := range scenarios.MatrixSpecs() {
			fmt.Println(s.Name)
		}
		return
	}

	if *scale {
		runScale(*duration, *jsonOut, strategyNames, *viewers, capOverride, *workers, *cacheStats)
		return
	}

	if *failover {
		runFailover(*duration, *jsonOut, *workers)
		return
	}

	if *qoeCells {
		runQoE(*duration, *jsonOut, *workers, *cacheStats)
		return
	}

	var specs []scenarios.Spec
	switch {
	case *run != "":
		s, ok := scenarios.SpecByName(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "fiblab: no matrix cell %q (see -list)\n", *run)
			os.Exit(2)
		}
		specs = append(specs, s)
	case *topoF != "":
		specs = append(specs, scenarios.Spec{
			Topo:     scenarios.TopoSpec{Family: *topoF, Size: *size, Seed: *seed, Capacity: capOverride},
			Workload: *workload,
			Failure:  *failure,
			Seed:     *seed,
		})
	case *matrix:
		specs = scenarios.MatrixSpecs()
	default:
		flag.Usage()
		os.Exit(2)
	}

	var results []*scenarios.Comparison
	failed := false
	start := time.Now()
	for _, spec := range specs {
		if *duration > 0 {
			spec.Duration = *duration
		}
		if len(strategyNames) > 0 {
			spec.Strategies = strategyNames
		}
		if *viewers > 0 {
			spec.Viewers = *viewers
		}
		if capOverride > 0 {
			spec.Topo.Capacity = capOverride
		}
		spec.Workers = *workers
		if *scoreMd != "" {
			spec.ScoreMode = *scoreMd
		}
		if *bfd {
			spec.BFD = true
		}
		if *standbyK > 0 {
			spec.StandbyK = *standbyK
		}
		cmp, err := scenarios.Compare(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
		results = append(results, cmp)
		if len(cmp.Violations) > 0 {
			failed = true
		}
		if !*jsonOut {
			var b strings.Builder
			cmp.Render(&b)
			if *cacheStats {
				cmp.On.RenderCacheStats(&b, "  ")
			}
			fmt.Print(b.String())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("%d cells in %.1fs\n", len(results), time.Since(start).Seconds())
	}
	if failed {
		fmt.Fprintln(os.Stderr, "fiblab: invariant violations (see above)")
		os.Exit(1)
	}
}

// runFailover executes the fast-failover cells: each spec runs twice
// with the controller on — BFD + standby cache against SNMP-poll
// detection — and the comparison checks the order-of-magnitude latency
// and stall-ratio invariants between them.
func runFailover(duration time.Duration, jsonOut bool, workers int) {
	var results []*scenarios.FailoverComparison
	failed := false
	for _, spec := range scenarios.FailoverSpecs() {
		if duration > 0 {
			spec.Duration = duration
		}
		spec.Workers = workers
		cmp, err := scenarios.CompareFailover(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
		results = append(results, cmp)
		if len(cmp.Violations) > 0 {
			failed = true
		}
		if !jsonOut {
			var b strings.Builder
			cmp.Render(&b)
			fmt.Print(b.String())
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "fiblab: failover invariant violations (see above)")
		os.Exit(1)
	}
}

// runQoE executes the score-mode comparison cells: each spec runs three
// times — controller off, utilisation scoring, QoE scoring — and the
// comparison checks that stall-aware planning buys strictly fewer
// stalled viewer-seconds (predicted and simulated) without worsening on
// plain IGP.
func runQoE(duration time.Duration, jsonOut bool, workers int, cacheStats bool) {
	var results []*scenarios.ScoreModeComparison
	failed := false
	for _, spec := range scenarios.QoESpecs() {
		if duration > 0 {
			spec.Duration = duration
		}
		spec.Workers = workers
		cmp, err := scenarios.CompareScoreModes(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
		results = append(results, cmp)
		if len(cmp.Violations) > 0 {
			failed = true
		}
		if !jsonOut {
			var b strings.Builder
			cmp.Render(&b)
			if cacheStats {
				cmp.QoE.RenderCacheStats(&b, "  ")
			}
			fmt.Print(b.String())
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "fiblab: score-mode invariant violations (see above)")
		os.Exit(1)
	}
}

// scaleResult is one scaling cell's cost record.
type scaleResult struct {
	Report    *scenarios.Report `json:"report"`
	WallClock float64           `json:"wall_clock_seconds"`
}

// runScale executes the large-topology cells (controller on, no
// counterfactual side: these measure cost, not invariants) and prints
// per-cell wall-clock and scheduler events executed.
func runScale(duration time.Duration, jsonOut bool, strategyNames []string, viewers int, capOverride float64, workers int, cacheStats bool) {
	var results []scaleResult
	for _, spec := range scenarios.ScaleSpecs() {
		if duration > 0 {
			spec.Duration = duration
		}
		if len(strategyNames) > 0 {
			spec.Strategies = strategyNames
		}
		if viewers > 0 {
			spec.Viewers = viewers
		}
		if capOverride > 0 {
			spec.Topo.Capacity = capOverride
		}
		spec.Workers = workers
		start := time.Now()
		rep, err := scenarios.Run(spec, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		results = append(results, scaleResult{Report: rep, WallClock: wall.Seconds()})
		if !jsonOut {
			fmt.Printf("%-24s wall=%8.2fs events=%9d spf=%d inc/%d full reshare=%d inc/%d full sessions=%d aggs=%d settled=%.2f lies=%d workers=%d batches=%d par-spf=%d/%d max-batch=%d\n",
				spec.Name, wall.Seconds(), rep.Events,
				rep.SPFIncrementalRuns, rep.SPFFullRuns,
				rep.ReshareIncremental, rep.ReshareFull,
				rep.Sessions, rep.Aggregates, rep.SettledUtilisation, rep.Lies,
				rep.Workers, rep.ParallelBatches, rep.ParallelSPFRuns,
				rep.ParallelSPFRuns+rep.SequentialSPFRuns, rep.MaxBatch)
			if cacheStats {
				var b strings.Builder
				rep.RenderCacheStats(&b, "  ")
				fmt.Print(b.String())
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "fiblab: %v\n", err)
			os.Exit(1)
		}
	}
}
