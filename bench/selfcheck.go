package main

// -selfcheck: does the benchmark agree with itself? Two sets of runs of
// the same binary, interleaved A B A B so that both see the same host
// weather, must give medians within every metric's bound, and each set's
// own spread must fit inside the bound too.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// setResults is one set's results: workload -> metric -> one value per
// run.
type setResults struct {
	Host    host                            `json:"host"`
	Seconds int                             `json:"seconds"`
	Seeds   []int64                         `json:"seeds"`
	Values  map[string]map[string][]float64 `json:"values"`
}

// spread is the distance between the first and third quartile as a share
// of the median, quartiles taken the way Python's statistics.quantiles
// (n=4, exclusive) takes them — the rule the driver applies.
func spread(xs []float64) float64 {
	q1, q3 := quartile(xs, 1), quartile(xs, 3)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// quartile is the k-th quartile by the exclusive method: position
// k(n+1)/4 in the sorted sample, interpolated, clamped to the ends.
func quartile(xs []float64, k int) float64 {
	n := len(xs)
	pos := float64(k*(n+1))/4 - 1 // zero-based
	if pos <= 0 {
		return percentile(xs, 0)
	}
	if pos >= float64(n-1) {
		return percentile(xs, 1)
	}
	return percentile(xs, pos/float64(n-1))
}

// worsening is how much b is worse than a, as a share of a, for a metric
// of the given direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func runSelfcheck(runs, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sets := [2]*setResults{}
	for i := range sets {
		sets[i] = &setResults{Host: thisHost(), Seconds: seconds, Values: make(map[string]map[string][]float64)}
	}
	for run := 1; run <= runs; run++ {
		for si, set := range sets {
			set.Seeds = append(set.Seeds, int64(run))
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s\n", run, runs, 'A'+si, w.name)
				res, err := runChild(exe, w.name, int64(run), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d ops failed\n", w.name, run, res.Failed, res.Attempted)
					return 1
				}
				if set.Values[w.name] == nil {
					set.Values[w.name] = make(map[string][]float64)
				}
				for name, v := range res.Metrics {
					set.Values[w.name][name] = append(set.Values[w.name][name], v.Value)
				}
			}
		}
	}
	for i, set := range sets {
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("selfcheck-%c.json", 'A'+i)), set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	status := 0
	fmt.Printf("%-12s %-16s %12s %7s %12s %7s %8s %6s\n", "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0].Values[w.name][d.Name], sets[1].Values[w.name][d.Name]
			diff := worsening(median(a), median(b), d.Better)
			verdict := ""
			// Either order of the two sets must pass, and — except for
			// set-up time, which the driver exempts — each set's own
			// spread must fit inside the bound.
			if math.Abs(diff) > d.Bound || (d.Name != "setup_s" && max(spread(a), spread(b)) > d.Bound) {
				verdict = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("%-12s %-16s %12.6g %6.2f%% %12.6g %6.2f%% %+7.2f%% %5.1f%%%s\n",
				w.name, d.Name, median(a), 100*spread(a), median(b), 100*spread(b), 100*diff, 100*d.Bound, verdict)
		}
	}
	return status
}

// runChild runs one workload in a fresh process and parses the result
// line.
func runChild(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
