package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it; under twenty samples there is none above the median.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples: a tail percentile was reported")
	}
	for _, tc := range []struct{ n, pct int }{{25, 60}, {100, 90}, {200, 95}, {1000, 99}, {5000, 99}} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if !ok || pct != tc.pct {
			t.Errorf("n=%d: pct=%d ok=%v, want %d", tc.n, pct, ok, tc.pct)
			continue
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, pct)
		}
	}
}

// Quartiles follow Python's statistics.quantiles(n=4), the driver's rule.
func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(xs, 1), quartile(xs, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWorseningBothDirections(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, lower, 0.10},
		{100, 90, lower, -0.10},
		{100, 90, higher, 0.10},
		{100, 110, higher, -0.10},
	} {
		if got := worsening(tc.a, tc.b, tc.better); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", tc.a, tc.b, tc.better, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "harness.op", Start: 0, End: 100, Parent: -1},
		{Name: "event.run", Start: 10, End: 60, Parent: 0},
		{Name: "controller.handle", Start: 20, End: 30, Parent: 1},
		{Name: "controller.handle", Start: 40, End: 45, Parent: 1},
		{Name: "event.run", Start: 60, End: 90, Parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{20, 35, 10, 5, 30}
	var sum time.Duration
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, the root span lasts 100", sum)
	}
	if got := byLayer(spans)["controller"]; got != 15 {
		t.Errorf("controller layer = %d, want 15", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	rec.in("a.outer", func() {
		rec.in("b.inner", func() {})
		rec.in("b.inner", func() {})
	})
	if len(rec.spans) != 3 || rec.spans[1].Parent != 0 || rec.spans[2].Parent != 0 || rec.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	var none *recorder
	none.in("a.b", func() {}) // a nil recorder records nothing and does not panic
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclaredNames(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2..8", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
	}
	for _, w := range workloads {
		check(w.name)
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the declaration in spec.go and workloads.go; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
}

// Every workload, at one round of one op, must produce every declared
// metric, traced and not, with no failed op.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := runWorkload(w, 1, 1, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 || s.attempted != 1 {
				t.Fatalf("attempted %d, failed %d: %v", s.attempted, s.failed, s.firstErr)
			}
			m := endToEndMetrics(s)
			for _, d := range endToEnd {
				if v, ok := m[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v): must be a positive number", d.Name, v, ok)
				}
			}
		})
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced pass of every workload")
	}
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one := *w
			one.ops, one.traces = 1, 1
			m, s, err := runTraced(&one, 1, runSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 {
				t.Fatalf("failed %d: %v", s.failed, s.firstErr)
			}
			for _, d := range perLayer {
				if v, ok := m[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			for name := range m {
				if !declared(name) {
					t.Errorf("metric %s is reported but not declared", name)
				}
			}
			if c := m["harness.span_coverage_pct"]; c < 95 || c > 100.5 {
				t.Errorf("layer self times cover %.1f%% of the traced wall-clock, want within 5%%", c)
			}
			if _, err := os.Stat(outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

func declared(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}
