package main

import (
	"bytes"
	"testing"

	"fibbing.net/fibbing/internal/golden"
)

// TestGoldenOutput: the default run (the paper's Figure 1 surge) and a
// surge towards two prefixes each exit 0 and print exactly their
// testdata/ golden. The two-prefix run injects lies for both prefixes,
// so it also pins their order: by prefix name, whatever the map order. A
// change that moves a number on purpose reruns with -update and commits
// the moved lines.
func TestGoldenOutput(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"fig1.txt", nil},
		{"two-prefix.txt", []string{"-topo", "testdata/two-prefix.topo",
			"-demand", "A:blue:4M", "-demand", "B:blue:4M", "-demand", "A:red:4M", "-demand", "B:red:4M"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(c.args, &stdout, &stderr); status != 0 {
				t.Fatalf("exit %d: %s", status, stderr.String())
			}
			golden.Check(t, c.golden, stdout.Bytes())
		})
	}
}

// TestErrors: a flag fibsim does not know is a usage error (exit 2), and
// a topology it cannot read fails the run (exit 1); both say why on
// stderr and print nothing.
func TestErrors(t *testing.T) {
	for args, want := range map[string]int{"-no-such-flag": 2, "-topo=testdata/missing.topo": 1} {
		var stdout, stderr bytes.Buffer
		if status := run([]string{args}, &stdout, &stderr); status != want || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("fibsim %s: exit %d, stdout %q, stderr %q; want %d, nothing, a reason", args, status, stdout.String(), stderr.String(), want)
		}
	}
}
