package topo

import (
	"strings"
	"testing"
	"time"
)

// FuzzParse drives the textual topology parser with arbitrary input: it
// must never panic, any topology it accepts must have at most one link
// per ordered pair and render (String) to a form that reparses into one
// that has too, with the rendering stable from the second pass on
// (String is the canonical form).
func FuzzParse(f *testing.F) {
	f.Add("router A\nrouter B\nlink A B weight 2 capacity 10M delay 1ms\n" +
		"prefix 10.66.0.0/16 name blue at A cost 0\n")
	f.Add("router A\nrouter B\ndlink A B weight 3\ndlink B A weight 1\n")
	f.Add("router A\nhost H\nlink H A\n# comment\n\nprefix 10.0.0.0/8 name p at A\n")
	f.Add(Fig1(Fig1Opts{WithHosts: true, Delay: time.Millisecond}).String())
	f.Add(Abilene(10e6, 2*time.Millisecond).String())
	f.Add("link A B")
	f.Add("prefix nope name x at A")
	f.Add("router A\nrouter A\n")
	f.Add("router A\nrouter B\nlink A B weight 2\ndlink B A weight 1\n")

	f.Fuzz(func(t *testing.T, input string) {
		tp, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		onePerPair(t, tp)
		r1 := tp.String()
		tp2, err := Parse(strings.NewReader(r1))
		if err != nil {
			t.Fatalf("rendering of accepted topology does not reparse: %v\n%s", err, r1)
		}
		onePerPair(t, tp2)
		if tp2.NumNodes() != tp.NumNodes() || tp2.NumLinks() != tp.NumLinks() ||
			len(tp2.Prefixes()) != len(tp.Prefixes()) {
			t.Fatalf("round trip changed shape: %d/%d/%d -> %d/%d/%d",
				tp.NumNodes(), tp.NumLinks(), len(tp.Prefixes()),
				tp2.NumNodes(), tp2.NumLinks(), len(tp2.Prefixes()))
		}
		r2 := tp2.String()
		tp3, err := Parse(strings.NewReader(r2))
		if err != nil {
			t.Fatalf("second rendering does not reparse: %v\n%s", err, r2)
		}
		if r3 := tp3.String(); r3 != r2 {
			t.Fatalf("canonical form not stable:\n--- r2 ---\n%s\n--- r3 ---\n%s", r2, r3)
		}
	})
}

// onePerPair fails the test when two links join one ordered pair.
func onePerPair(t *testing.T, tp *Topology) {
	t.Helper()
	seen := make(map[[2]NodeID]bool, tp.NumLinks())
	for _, l := range tp.Links() {
		pair := [2]NodeID{l.From, l.To}
		if seen[pair] {
			t.Fatalf("two links %s->%s:\n%s", tp.Name(l.From), tp.Name(l.To), tp)
		}
		seen[pair] = true
	}
}

// FuzzParseBits checks the bit-rate scanner against its formatter.
func FuzzParseBits(f *testing.F) {
	f.Add("10M")
	f.Add("2.5G")
	f.Add("640K")
	f.Add("1e+07")
	f.Add("-3M")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseBits(s)
		if err != nil {
			return
		}
		back, err := ParseBits(FormatBits(v))
		if err != nil {
			t.Fatalf("FormatBits(%v) = %q does not reparse: %v", v, FormatBits(v), err)
		}
		if back != v {
			t.Fatalf("round trip changed value: %v -> %v", v, back)
		}
	})
}
