package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"

	"fibbing.net/fibbing/internal/scenarios"
)

// overrideArgs sets every override flag at once, each to a value no cell
// has of its own, so one run per mode shows where each of them landed.
var overrideArgs = []string{
	"-duration", "31s", "-strategies", "localecmp", "-viewers", "60", "-capacity", "20M",
	"-score-mode", "qoe", "-bfd",
}

// without drops the named flags (and their values) from overrideArgs.
func without(names ...string) []string {
	var out []string
	for i := 0; i < len(overrideArgs); i++ {
		if slices.Contains(names, overrideArgs[i]) {
			if overrideArgs[i] != "-bfd" {
				i++ // the flag's value
			}
			continue
		}
		out = append(out, overrideArgs[i])
	}
	return out
}

// armJSON is the part of an arm's report the tests read: where each
// override shows once it has reached the run.
type armJSON struct {
	Scenario    string   `json:"scenario"`
	Duration    int64    `json:"duration"`
	ScoreMode   string   `json:"score_mode"`
	Strategies  []string `json:"strategies"`
	Sessions    int      `json:"sessions"`
	BFDSessions int      `json:"bfd_sessions"`
}

// runJSON runs fiblab with -json and decodes the cell array.
func runJSON(t *testing.T, args ...string) (int, []map[string]json.RawMessage, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	status := run(append(args, "-json"), &stdout, &stderr)
	var cells []map[string]json.RawMessage
	if stdout.Len() > 0 {
		if err := json.Unmarshal(stdout.Bytes(), &cells); err != nil {
			t.Fatalf("fiblab %v: output is not a JSON array of objects: %v", args, err)
		}
	}
	return status, cells, stderr.String()
}

// TestOverridesReachEveryArm is the mode x override-flag table: in every
// mode, each override flag either lands in the Spec of every arm of every
// cell or makes the invocation a usage error — never silently dropped. It
// also pins the top-level JSON keys of each mode's cells, the shape
// TestGoldenReports' testdata/ files (rewritten with -update) and
// downstream readers rely on.
func TestOverridesReachEveryArm(t *testing.T) {
	modes := []struct {
		name    string
		args    []string
		arms    []string // JSON keys of the arm reports
		rejects []string // override flags the mode's own arms set
	}{
		{"run", []string{"-run", "fig1/surge"}, []string{"on", "off"}, nil},
		{"topo", []string{"-topo", "ring", "-size", "5"}, []string{"on", "off"}, nil},
		{"matrix", []string{"-matrix"}, []string{"on", "off"}, nil},
		{"failover", []string{"-failover"}, []string{"fast", "slow"}, []string{"-bfd"}},
		{"qoe", []string{"-qoe"}, []string{"util", "qoe", "off"}, []string{"-score-mode"}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			for _, flag := range m.rejects {
				args := []string{flag}
				if flag != "-bfd" {
					args = append(args, "2")
				}
				if status, cells, _ := runJSON(t, append(m.args, args...)...); status != 2 || len(cells) != 0 {
					t.Errorf("%s with %s: exit %d and %d cells, want a usage error", m.name, flag, status, len(cells))
				}
			}
			// Violations (exit 1) are fine here: the overrides bend the cells.
			status, cells, stderr := runJSON(t, append(m.args, without(m.rejects...)...)...)
			if status > 1 || len(cells) == 0 {
				t.Fatalf("exit %d, %d cells: %s", status, len(cells), stderr)
			}
			rejected := func(flag string) bool { return slices.Contains(m.rejects, flag) }
			for _, cell := range cells {
				keys := slices.Sorted(maps.Keys(cell))
				want := slices.Sorted(slices.Values(append([]string{"spec"}, m.arms...)))
				if v, ok := cell["violations"]; ok {
					want = append(want, "violations")
					if string(v) == "null" || string(v) == "[]" {
						t.Errorf("empty violations encoded: %s", v)
					}
				}
				if !slices.Equal(keys, want) {
					t.Fatalf("cell keys %v, want %v", keys, want)
				}
				var spec scenarios.Spec
				if err := json.Unmarshal(cell["spec"], &spec); err != nil {
					t.Fatal(err)
				}
				if spec.Duration.String() != "31s" || !slices.Equal(spec.Strategies, []string{"local-ecmp"}) ||
					spec.Viewers != 60 || spec.Topo.Capacity != 20e6 {
					t.Errorf("%s: overrides missing from the spec: %+v", spec.Name, spec)
				}
				if !rejected("-score-mode") && spec.ScoreMode != "qoe" {
					t.Errorf("%s: -score-mode missing from the spec: %+v", spec.Name, spec)
				}
				if !rejected("-bfd") && !spec.BFD {
					t.Errorf("%s: -bfd missing from the spec: %+v", spec.Name, spec)
				}
				for _, key := range m.arms {
					var arm armJSON
					if err := json.Unmarshal(cell[key], &arm); err != nil {
						t.Fatal(err)
					}
					if arm.Duration != spec.Duration.Nanoseconds() || !slices.Equal(arm.Strategies, spec.Strategies) {
						t.Errorf("%s: arm %q ran without an override: %+v", spec.Name, key, arm)
					}
					// Only the surge workload honours the viewer count exactly.
					if spec.Workload == "surge" && arm.Sessions != 60 {
						t.Errorf("%s: arm %q ran %d sessions, want 60", spec.Name, key, arm.Sessions)
					}
					if !rejected("-score-mode") && arm.ScoreMode != "qoe" {
						t.Errorf("%s: arm %q ran score mode %q", spec.Name, key, arm.ScoreMode)
					}
					if !rejected("-bfd") && arm.BFDSessions == 0 {
						t.Errorf("%s: arm %q ran without BFD", spec.Name, key)
					}
				}
			}
		})
	}
}

// TestScaleMode drives the scaling mode's arm through the same loop on one
// small cell (the real -scale cells take minutes): overrides land, and the
// JSON shape is report + wall clock.
func TestScaleMode(t *testing.T) {
	t.Parallel()
	small := []scenarios.Spec{{Name: "mini", Topo: scenarios.TopoSpec{Family: "fig1"}, Workload: "surge"}}
	o := options{jsonOut: true, over: scenarios.Spec{Viewers: 60, ScoreMode: "qoe", BFD: true}}
	var stdout, stderr bytes.Buffer
	if status := loop(small, o, runScale, scaleResult.view, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &cells); err != nil || len(cells) != 1 {
		t.Fatalf("%d cells, %v", len(cells), err)
	}
	if keys := slices.Sorted(maps.Keys(cells[0])); !slices.Equal(keys, []string{"report", "wall_clock_seconds"}) {
		t.Fatalf("cell keys %v", keys)
	}
	var arm armJSON
	if err := json.Unmarshal(cells[0]["report"], &arm); err != nil {
		t.Fatal(err)
	}
	if arm.Scenario != "mini" || arm.Sessions != 60 || arm.ScoreMode != "qoe" || arm.BFDSessions == 0 {
		t.Fatalf("overrides missing from the scaling arm: %+v", arm)
	}

	// The text path renders the same cell, cache telemetry included.
	stdout.Reset()
	o.jsonOut, o.cacheStats = false, true
	if status := loop(small, o, runScale, scaleResult.view, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	if out := stdout.String(); !strings.HasPrefix(out, "mini ") || !strings.Contains(out, "plan-cache") || !strings.Contains(out, "1 cells in") {
		t.Fatalf("text output:\n%s", out)
	}
}

// TestUsageErrors: what the command line gets wrong exits 2 before any
// cell runs, and says why on stderr.
func TestUsageErrors(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-run", "nosuch/cell"},
		{"-matrix", "-score-mode", "blended"},
		{"-matrix", "-strategies", "nosuch"},
		{"-matrix", "-capacity", "0"},
		{"-matrix", "-qoe"},
		{"-matrix", "-workers", "1"},
		{"-no-such-flag"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(args, &stdout, &stderr); status != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("fiblab %v: exit %d, %d bytes of stdout, stderr %q; want a usage error", args, status, stdout.Len(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-list"}, &stdout, &stderr); status != 0 || len(strings.Fields(stdout.String())) != len(scenarios.MatrixSpecs()) {
		t.Errorf("-list: exit %d, output %q", status, stdout.String())
	}
}
