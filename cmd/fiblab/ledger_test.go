package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// bound is the way a ledger column may move without failing the ledger.
type bound int

const (
	upper bound = iota // the figure may fall, never rise
	lower              // the figure may rise, never fall
)

// ledgerBounds names every column the ledger bounds. Any other ledger
// column is part of its row's key. The cmd/experiments columns are the
// table headers with '_' for ' '. The population columns are those of
// the count table in internal/scenarios/testdata/population.txt; each
// counts draws that break something, or lies left installed, so each is
// an upper bound, but for withdraws_fired.
var ledgerBounds = map[string]bound{
	"lies":                upper,
	"stall_seconds":       upper,
	"decisions":           upper,
	"reaction_latency":    upper,
	"failover_latency":    upper,
	"settled_utilisation": upper,
	"delivered_mbit":      lower,
	"smooth_sessions":     lower,
	"decision_at":         upper,
	"full_delivery_at":    upper,
	"fib_lies":            upper,
	"fibbing_realised":    upper,
	"rejected":            upper,
	"unstressed":          upper,
	"off_lies":            upper,
	"not_beat_igp":        upper,
	"lp_slack":            upper,
	"never_lies":          upper,
	"other_prefix":        upper,
	"slow_reaction":       upper,
	"late_stall":          upper,
	"protocol_errors":     upper,
	"controller_errors":   upper,
	"unsafe":              upper,
	"arms_with_lies":      upper,
	"lies_at_end":         upper,
	"withdraws_fired":     lower,
}

// fiblabModes are the golden report files, and experimentTables the
// cmd/experiments tables, that the ledger holds.
var (
	fiblabModes      = []string{"matrix", "failover", "qoe"}
	experimentTables = []string{"reaction-latency", "overhead-rsvpte", "minmax-optimality"}
)

// ledgerTable is one section of the ledger, or the figures it holds:
// named columns and their rows, every value as printed.
type ledgerTable struct {
	cols []string
	rows [][]string
}

// TestPaperLedger holds the numbers the paper would print to the
// hand-edited bounds in testdata/ledger.txt: per fiblab cell and arm
// the lies, stalls, decisions, latencies, settled utilisation, delivered
// volume and smooth sessions, the cmd/experiments tables' decision
// and delivery times, lies and realised utilisation, and the drawn
// population's counts. The goldens' own tests prove they equal the
// programs' output (the population's, the draws' verdicts), so the pair
// gates those outputs without running a simulation here. -update never
// writes the ledger.
func TestPaperLedger(t *testing.T) {
	ledger := parseLedger(t, filepath.Join("testdata", "ledger.txt"))
	observed := map[string]ledgerTable{}
	for _, mode := range fiblabModes {
		observed[mode] = fiblabFigures(t, mode)
	}
	all, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experimentTables {
		observed[id] = experimentFigures(t, string(all), id)
	}
	observed["population"] = populationFigures(t)
	for _, name := range slices.Sorted(maps.Keys(observed)) {
		if _, ok := ledger[name]; !ok {
			t.Errorf("ledger has no section %q", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(ledger)) {
		want := ledger[name]
		got, ok := observed[name]
		if !ok {
			t.Errorf("ledger section %q has no source table", name)
			continue
		}
		checkLedger(t, name, want, got)
	}
	t.Log(ledgerTotals(observed))
}

// checkLedger holds one source table to its ledger section: every ledger
// row must name a row of the table, every table row must have a ledger
// row, and every bounded figure must stay on its side of the bound.
func checkLedger(t *testing.T, name string, want, got ledgerTable) {
	t.Helper()
	var keys, bounded []string
	for _, c := range want.cols {
		if _, ok := ledgerBounds[c]; ok {
			bounded = append(bounded, c)
		} else {
			keys = append(keys, c)
		}
		if !slices.Contains(got.cols, c) {
			t.Errorf("%s: ledger column %q is not in the source table %v", name, c, got.cols)
			return
		}
	}
	byKey := func(tab ledgerTable) ([]string, map[string]map[string]string) {
		var order []string
		rows := map[string]map[string]string{}
		for _, row := range tab.rows {
			m := map[string]string{}
			for i, c := range tab.cols {
				m[c] = row[i]
			}
			var key []string
			for _, k := range keys {
				key = append(key, m[k])
			}
			order = append(order, strings.Join(key, " "))
			rows[order[len(order)-1]] = m
		}
		return order, rows
	}
	wantOrder, wantRows := byKey(want)
	gotOrder, gotRows := byKey(got)
	for _, key := range gotOrder {
		if _, ok := wantRows[key]; !ok {
			t.Errorf("%s %s: not in the ledger; add its line", name, key)
		}
	}
	for _, key := range wantOrder {
		w, g := wantRows[key], gotRows[key]
		if g == nil {
			t.Errorf("%s %s: ledger line names no row of the source table", name, key)
			continue
		}
		for _, c := range bounded {
			wv, gv := figure(t, w[c]), figure(t, g[c])
			switch {
			case ledgerBounds[c] == upper && gv > wv:
				t.Errorf("%s %s: %s rose to %s, ledger bound %s", name, key, c, g[c], w[c])
			case ledgerBounds[c] == lower && gv < wv:
				t.Errorf("%s %s: %s fell to %s, ledger bound %s", name, key, c, g[c], w[c])
			}
		}
	}
}

// figure reads one printed value: a number, a Go duration (in seconds),
// or "-" or "never" for an event that did not happen, which counts as
// later than any time.
func figure(t *testing.T, s string) float64 {
	t.Helper()
	if s == "-" || s == "never" {
		return math.Inf(1)
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("ledger value %q is not a number, a duration, '-' or 'never'", s)
	}
	return d.Seconds()
}

// parseLedger reads the ledger's "== name ==" sections.
func parseLedger(t *testing.T, path string) map[string]ledgerTable {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]ledgerTable{}
	var name string
	for n, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(line, "#"):
		case len(fields) == 3 && fields[0] == "==" && fields[2] == "==":
			name = fields[1]
			if _, dup := out[name]; dup {
				t.Fatalf("%s:%d: section %q repeats", path, n+1, name)
			}
			out[name] = ledgerTable{}
		case name == "":
			t.Fatalf("%s:%d: line outside a section", path, n+1)
		case out[name].cols == nil:
			out[name] = ledgerTable{cols: fields}
		default:
			tab := out[name]
			if len(fields) != len(tab.cols) {
				t.Fatalf("%s:%d: %d values for %d columns", path, n+1, len(fields), len(tab.cols))
			}
			tab.rows = append(tab.rows, fields)
			out[name] = tab
		}
	}
	return out
}

// fiblabFigures reads one committed fiblab golden into a table with a
// row per cell and arm. A latency prints as a Go duration, and -1 (the
// event did not happen) as "-".
func fiblabFigures(t *testing.T, mode string) ledgerTable {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", mode+".json"))
	if err != nil {
		t.Fatal(err)
	}
	type arm struct {
		Lies               json.Number       `json:"lies"`
		StallSeconds       json.Number       `json:"stall_seconds"`
		Decisions          []json.RawMessage `json:"decisions"`
		ReactionLatency    time.Duration     `json:"reaction_latency"`
		FailoverLatency    time.Duration     `json:"failover_latency"`
		SettledUtilisation json.Number       `json:"settled_utilisation"`
		DeliveredMbit      json.Number       `json:"delivered_mbit"`
		SmoothSessions     json.Number       `json:"smooth_sessions"`
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	latency := func(d time.Duration) string {
		if d < 0 {
			return "-"
		}
		return d.String()
	}
	tab := ledgerTable{cols: []string{"cell", "arm", "lies", "stall_seconds", "decisions", "reaction_latency",
		"failover_latency", "settled_utilisation", "delivered_mbit", "smooth_sessions"}}
	for _, cell := range cells {
		var spec struct{ Name string }
		if err := json.Unmarshal(cell["spec"], &spec); err != nil {
			t.Fatal(err)
		}
		for _, name := range slices.Sorted(maps.Keys(cell)) {
			if name == "spec" {
				continue
			}
			var a arm
			if err := json.Unmarshal(cell[name], &a); err != nil {
				t.Fatalf("%s %s %s: %v", mode, spec.Name, name, err)
			}
			tab.rows = append(tab.rows, []string{spec.Name, name, a.Lies.String(), a.StallSeconds.String(),
				strconv.Itoa(len(a.Decisions)), latency(a.ReactionLatency), latency(a.FailoverLatency),
				a.SettledUtilisation.String(), a.DeliveredMbit.String(), a.SmoothSessions.String()})
		}
	}
	return tab
}

// dashRun finds the columns of a cmd/experiments table's rule line.
var dashRun = regexp.MustCompile(`-+`)

// experimentFigures cuts the table of experiment id out of
// cmd/experiments' golden output. Columns start where the rule line's
// dash runs start; a header's spaces become '_'.
func experimentFigures(t *testing.T, all, id string) ledgerTable {
	t.Helper()
	lines := strings.Split(all, "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "== "+id+": ") })
	if at < 0 || at+2 >= len(lines) {
		t.Fatalf("cmd/experiments output has no %s table", id)
	}
	var starts []int
	for _, span := range dashRun.FindAllStringIndex(lines[at+2], -1) {
		starts = append(starts, span[0])
	}
	cut := func(line string) []string {
		out := make([]string, len(starts))
		for i, s := range starts {
			end := len(line)
			if i+1 < len(starts) {
				end = min(starts[i+1], end)
			}
			if s < end {
				out[i] = strings.TrimSpace(line[s:end])
			}
		}
		return out
	}
	var tab ledgerTable
	for _, h := range cut(lines[at+1]) {
		tab.cols = append(tab.cols, strings.ReplaceAll(h, " ", "_"))
	}
	for _, line := range lines[at+3:] {
		if line == "" || strings.HasPrefix(line, "note:") {
			break
		}
		tab.rows = append(tab.rows, cut(line))
	}
	return tab
}

// populationFigures reads the count table that ends the drawn
// population's golden, after its "== counts ==" line.
func populationFigures(t *testing.T) ledgerTable {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "scenarios", "testdata", "population.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	at := slices.Index(lines, "== counts ==")
	if at < 0 {
		t.Fatal("the population golden has no == counts == table")
	}
	var tab ledgerTable
	for _, line := range lines[at+1:] {
		switch f := strings.Fields(line); {
		case len(f) == 0:
		case tab.cols == nil:
			tab.cols = f
		default:
			tab.rows = append(tab.rows, f)
		}
	}
	return tab
}

// ledgerTotals sums lies, stall seconds and decisions over each fiblab
// mode's controller arms (every arm but "off").
func ledgerTotals(observed map[string]ledgerTable) string {
	var parts []string
	for _, mode := range fiblabModes {
		var lies, decisions int
		var stalls float64
		tab := observed[mode]
		for _, row := range tab.rows {
			if row[1] == "off" {
				continue
			}
			l, _ := strconv.Atoi(row[2])
			s, _ := strconv.ParseFloat(row[3], 64)
			d, _ := strconv.Atoi(row[4])
			lies, stalls, decisions = lies+l, stalls+s, decisions+d
		}
		parts = append(parts, fmt.Sprintf("%s %d lies, %.1f s of stalls, %d decisions", mode, lies, stalls, decisions))
	}
	return "ledger totals over the controller arms: " + strings.Join(parts, "; ")
}
