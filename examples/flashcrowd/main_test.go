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

// TestGoldenOutput: the crowd run succeeds and prints exactly
// testdata/out.txt. A change that moves a number on purpose reruns with
// -update and commits the moved lines.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden(t, "out.txt", out.Bytes())
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
