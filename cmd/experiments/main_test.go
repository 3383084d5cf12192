package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run's output")

// TestGoldenOutput: the whole default report, every experiment's table
// and check, equals testdata/all.txt byte for byte and exits 0. A change
// that moves a figure on purpose reruns with -update and commits the
// moved lines.
func TestGoldenOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run(nil, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	golden(t, "all.txt", stdout.Bytes())
}

// TestUnknownOnlyIsUsageError: a mistyped -only id exits 2 with nothing on
// stdout and names every real id on stderr.
func TestUnknownOnlyIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-only", "nosuch"}, &stdout, &stderr); status != 2 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing", status, stdout.String())
	}
	for _, id := range []string{"fig1a", "fig2-with", "demo-qoe", "abr-extension", "reaction-latency"} {
		if !strings.Contains(stderr.String(), id) {
			t.Errorf("stderr does not list %q: %s", id, stderr.String())
		}
	}
	if n := strings.Count(stderr.String(), ","); n != 12 {
		t.Errorf("stderr lists %d ids, want 13: %s", n+1, stderr.String())
	}
}

// TestOnlyPrintsOneBlock: -only keeps exactly the named experiment's block.
func TestOnlyPrintsOneBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-only", "fig1a"}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "== fig1a: ") || strings.Count(out, "== ") != 1 || !strings.Contains(out, "A>B>R2>C") {
		t.Fatalf("-only fig1a printed:\n%s", out)
	}
}

// TestCSV: -csv renders every table as a captioned CSV block.
func TestCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-csv", "-only", "fig2-with"}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if lines[0] != "# fig2-with: throughput over time (with Fibbing controller), byte/s" || lines[1] != "t_sec,A-R1,B-R2,B-R3" {
		t.Fatalf("-csv printed:\n%s", stdout.String())
	}
	// 0 s to 60 s in 5 s steps.
	if len(lines) != 2+13 {
		t.Fatalf("%d CSV lines, want header + 13 rows:\n%s", len(lines), stdout.String())
	}
}

// TestShortFig2IsAnError: a demo cut before its last wave fails with the
// cell's own error instead of producing failed checks.
func TestShortFig2IsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-fig2", "30s"}, &stdout, &stderr); status != 1 || !strings.Contains(stderr.String(), "too short") {
		t.Fatalf("exit %d, stderr %q; want 1 and the duration error", status, stderr.String())
	}
}

// golden compares got with testdata/name, or rewrites the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	if !bytes.Equal(got, want) {
		// Both end in a sentinel line, so the first difference is in range.
		g := append(strings.Split(string(got), "\n"), "<end of file>")
		w := append(strings.Split(string(want), "\n"), "<end of file>")
		i := 0
		for g[i] == w[i] {
			i++
		}
		t.Errorf("%s differs from this run at line %d:\n  golden: %q\n  run:    %q\nrerun with -update and commit the diff if the change is intended",
			path, i+1, w[i], g[i])
	}
}
