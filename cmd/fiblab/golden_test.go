package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/golden"
)

// scrubbed are the report keys whose values depend on wall-clock time.
// Everything else a cell reports is a pure function of its spec.
var scrubbed = []string{"nanos"}

// TestGoldenReports is the "same reports" tripwire: the matrix, failover
// and QoE cells' JSON, scrubbed, must equal testdata/<mode>.json byte for
// byte, and every cell must hold its invariants. A change that moves a
// simulated outcome on purpose reruns with -update and commits the moved
// lines.
func TestGoldenReports(t *testing.T) {
	for _, mode := range []string{"matrix", "failover", "qoe"} {
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if status := run([]string{"-" + mode, "-json"}, &stdout, &stderr); status != 0 {
				t.Fatalf("fiblab -%s -json: exit %d: %s", mode, status, stderr.String())
			}
			dec := json.NewDecoder(&stdout)
			dec.UseNumber() // keep every number's digits as printed
			var cells any
			if err := dec.Decode(&cells); err != nil {
				t.Fatal(err)
			}
			scrub(cells)
			out, err := json.MarshalIndent(cells, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, mode+".json", append(out, '\n'))
		})
	}
}

// scrub deletes the scrubbed keys at every depth of a decoded JSON value.
func scrub(v any) {
	switch v := v.(type) {
	case map[string]any:
		for _, k := range scrubbed {
			delete(v, k)
		}
		for _, e := range v {
			scrub(e)
		}
	case []any:
		for _, e := range v {
			scrub(e)
		}
	}
}

// TestStockStrategiesWin is the earn-or-delete audit of the stock
// strategy set: summed over the matrix and QoE goldens, every strategy
// DefaultStrategies registers wins at least one arm's decision, or it is
// code no reported cell needs.
func TestStockStrategiesWin(t *testing.T) {
	wins := map[string]int{}
	for mode, arms := range map[string][]string{"matrix": {"on", "off"}, "qoe": {"util", "qoe", "off"}} {
		raw, err := os.ReadFile(filepath.Join("testdata", mode+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var cells []map[string]struct {
			StrategyPerf map[string]controller.StrategyPerf `json:"strategy_perf"`
		}
		if err := json.Unmarshal(raw, &cells); err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			for _, arm := range arms {
				for name, perf := range cell[arm].StrategyPerf {
					wins[name] += perf.Wins
				}
			}
		}
	}
	for _, s := range controller.DefaultStrategies() {
		if wins[s.Name()] == 0 {
			t.Errorf("stock strategy %s wins no decision in the matrix or QoE cells (wins: %v)", s.Name(), wins)
		}
	}
}

// TestReactionsProjectDecisions holds the reaction records to the report
// fields that are their projections, over the three goldens (no cell
// runs). In every arm the decisions are the committed reactions, in
// order, on instant, strategy and lies; and each strategy's proposal and
// win counts are its candidates and its won verdicts. A path that plans
// or commits without writing its record fails here.
func TestReactionsProjectDecisions(t *testing.T) {
	type arm struct {
		StrategyPerf map[string]controller.StrategyPerf `json:"strategy_perf"`
		Decisions    []controller.Decision              `json:"decisions"`
		Reactions    []controller.Reaction              `json:"reactions"`
	}
	for _, mode := range []string{"matrix", "failover", "qoe"} {
		raw, err := os.ReadFile(filepath.Join("testdata", mode+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var cells []map[string]json.RawMessage
		if err := json.Unmarshal(raw, &cells); err != nil {
			t.Fatal(err)
		}
		for i, cell := range cells {
			for _, name := range slices.Sorted(maps.Keys(cell)) {
				if name == "spec" {
					continue
				}
				var a arm
				if err := json.Unmarshal(cell[name], &a); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s cell %d, arm %s", mode, i, name)
				var decided, committed []controller.Decision
				for _, d := range a.Decisions {
					decided = append(decided, controller.Decision{At: d.At, Strategy: d.Strategy, Lies: d.Lies})
				}
				proposals, wins := map[string]int{}, map[string]int{}
				for _, r := range a.Reactions {
					if r.Strategy != "" {
						committed = append(committed, controller.Decision{At: r.At, Strategy: r.Strategy, Lies: r.Lies})
					}
					for _, c := range r.Candidates {
						proposals[c.Strategy]++
						if c.Verdict == "won" {
							wins[c.Strategy]++
						}
					}
				}
				if !slices.Equal(decided, committed) {
					t.Errorf("%s: decisions %+v, committed reactions %+v", where, decided, committed)
				}
				for _, s := range slices.Sorted(maps.Keys(proposals)) {
					if _, ok := a.StrategyPerf[s]; !ok {
						t.Errorf("%s: %d candidates of %s, which has no strategy_perf entry", where, proposals[s], s)
					}
				}
				for _, s := range slices.Sorted(maps.Keys(a.StrategyPerf)) {
					if perf := a.StrategyPerf[s]; perf.Proposals != proposals[s] || perf.Wins != wins[s] {
						t.Errorf("%s: %s proposed %d and won %d times; its candidates %d, won %d",
							where, s, perf.Proposals, perf.Wins, proposals[s], wins[s])
					}
				}
			}
		}
	}
}
