// Command bench is the repository's benchmark: five closed-loop
// workloads over the Fibbing control loop, measured in rounds so that two
// runs of the same code agree, with an outside-in traced run that
// attributes time to layers. See README.md in this directory.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload and prints its metrics, last line a JSON object
// (the contract of BENCHMARK.json). Without -workload it runs all five,
// each in a fresh child process. -selfcheck runs two alternating sets of
// every workload and compares them against the declared bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// outDir is where traced runs and -selfcheck write, relative to the
// working directory (the repository root); it is git-ignored.
const outDir = "bench/out"

// host records where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// metricSet maps metric name to value.
type metricSet map[string]float64

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds   = flag.Int("seconds", runSeconds, "run length; scales the frozen op counts linearly")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics, writes "+outDir+"/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of every workload and compare them against the bounds")
		sets      = flag.Int("runs", 5, "with -selfcheck: runs per set and workload")
		spec      = flag.Bool("spec", false, "print the declared metrics and workloads as BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The collector's pace is part of what is measured: pin it rather
	// than inherit GOGC from the environment.
	debug.SetGCPercent(100)

	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *selfcheck:
		os.Exit(runSelfcheck(*sets, *seconds))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace))
	default:
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		res, err := runOne(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// scaled is a frozen count scaled to the requested run length.
func scaled(n, seconds int) int {
	return max(1, (n*seconds+runSeconds/2)/runSeconds)
}

// runOne measures one workload in this process and returns the result
// line. It also prints every metric by name for a human reader.
func runOne(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	h := thisHost()
	fmt.Printf("bench %s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d %s %q\n",
		w.name, seed, seconds, traced, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	var (
		m     metricSet
		decl  []metric
		s     *samples
		err   error
		start = time.Now()
	)
	if traced {
		decl = perLayer
		m, s, err = runTraced(w, seed, seconds)
	} else {
		decl = endToEnd
		s, err = runWorkload(w, seed, scaled(w.ops, seconds), w.builds, rounds, nil)
		if err == nil {
			m = endToEndMetrics(s)
		}
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   make(map[string]metricValue, len(decl)),
	}
	for _, d := range decl {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s not measured (%v)", w.name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
		}
		fmt.Printf("  %-36s %14.6g %-6s %s is better%s\n", d.Name, v, d.Unit, d.Better, bound)
	}
	fmt.Printf("  ops=%d failed=%d wall=%.1fs  raw op_ms_p50=%.4g setup_s=%.4g, kernel ms p50=%.4g\n", s.attempted, s.failed,
		time.Since(start).Seconds(), median(s.opRawMs), median(s.setupRawS), median(s.calMs))
	if s.firstErr != nil {
		fmt.Printf("  first failure: %v\n", s.firstErr)
	}
	return res, nil
}

// endToEndMetrics reduces a gated run's samples to the end-to-end
// metrics. Times are host-speed-corrected (see stopwatch); the raw ones
// are reported by the traced run under the harness layer.
func endToEndMetrics(s *samples) metricSet {
	ops := float64(s.attempted)
	var corrected float64
	for _, v := range s.opMs {
		corrected += v
	}
	return metricSet{
		"setup_s":         median(s.setupS),
		"op_ms_p50":       median(s.opMs),
		"ops_per_s":       ops / (corrected / 1e3),
		"alloc_mb_per_op": float64(s.allocBytes) / ops / 1e6,
		"allocs_k_per_op": float64(s.mallocs) / ops / 1e3,
		"peak_rss_mb":     median(s.rssMB),
		"plan_util_mean":  s.outcome.util,
	}
}

// runAll runs every workload in its own child process, so that no
// workload measures on a heap another one grew.
func runAll(seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
