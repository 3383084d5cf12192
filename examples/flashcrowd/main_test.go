package main

import (
	"bytes"
	"testing"

	"fibbing.net/fibbing/internal/golden"
)

// TestGoldenOutput: the crowd run succeeds and prints exactly
// testdata/out.txt. A change that moves a number on purpose reruns with
// -update and commits the moved lines.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "out.txt", out.Bytes())
}
