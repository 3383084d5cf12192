package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/golden"
)

// TestGoldenOutput runs the daemon on an ephemeral loopback port over a
// 40 s Fig. 2 timeline, paced 200x so that it takes two 100 ms ticks of
// wall time. The first line names the bound port; everything after it
// (the decisions, the throughput table, the QoE and lie lines) is a
// function of the simulated timeline only, so it is held to
// testdata/out.txt whatever the wall clock did between ticks.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "127.0.0.1:0", 40*time.Second, "500K", true, 200, ""); err != nil {
		t.Fatal(err)
	}
	first, rest, _ := strings.Cut(out.String(), "\n")
	const want = "fibbingd: SNMP agent on 127.0.0.1:"
	if !strings.HasPrefix(first, want) || !strings.HasSuffix(first, "controller=true; running 40s at 200x") {
		t.Fatalf("first line %q, want %q<port> ...", first, want)
	}
	golden.Check(t, "out.txt", []byte(rest))
}
