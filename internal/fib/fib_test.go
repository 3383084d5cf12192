package fib

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"fibbing.net/fibbing/internal/topo"
)

func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func TestInstallAndLookup(t *testing.T) {
	tb := NewTable(1)
	err := tb.Install(Route{
		Prefix:   mustPfx("10.66.0.0/16"),
		NextHops: []NextHop{{Node: 2, Link: 0, Weight: 1}},
		Distance: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tb.Lookup(mustAddr("10.66.1.1"))
	if !ok || len(r.NextHops) != 1 || r.NextHops[0].Node != 2 {
		t.Fatalf("Lookup = %+v, %v", r, ok)
	}
	if _, ok := tb.Lookup(mustAddr("10.67.0.1")); ok {
		t.Fatalf("should miss")
	}
	// LookupLeaf: the /16 answers for all of itself until a more-specific
	// lands inside it; the more-specific, holding nothing inside, is a leaf.
	leafOf := func(dst string) (netip.Prefix, bool) {
		t.Helper()
		r, leaf, ok := tb.LookupLeaf(mustAddr(dst))
		if !ok {
			t.Fatalf("LookupLeaf(%s) missed", dst)
		}
		return r.Prefix, leaf
	}
	if p, leaf := leafOf("10.66.1.1"); p != mustPfx("10.66.0.0/16") || !leaf {
		t.Fatalf("lone /16: LookupLeaf = %v, leaf=%v", p, leaf)
	}
	if err := tb.Install(Route{Prefix: mustPfx("10.66.7.0/24"), NextHops: []NextHop{{Node: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if p, leaf := leafOf("10.66.1.1"); p != mustPfx("10.66.0.0/16") || leaf {
		t.Fatalf("/16 covering a /24: LookupLeaf = %v, leaf=%v", p, leaf)
	}
	if p, leaf := leafOf("10.66.7.9"); p != mustPfx("10.66.7.0/24") || !leaf {
		t.Fatalf("/24 inside the /16: LookupLeaf = %v, leaf=%v", p, leaf)
	}
	if _, _, ok := tb.LookupLeaf(mustAddr("10.67.0.1")); ok {
		t.Fatalf("LookupLeaf should miss")
	}
}

func TestInstallRejectsBadRoutes(t *testing.T) {
	tb := NewTable(1)
	if err := tb.Install(Route{Prefix: mustPfx("10.0.0.0/8")}); err == nil {
		t.Fatalf("route without next hops accepted")
	}
	if err := tb.Install(Route{
		Prefix:   mustPfx("10.0.0.0/8"),
		NextHops: []NextHop{{Node: 2, Weight: 0}},
	}); err == nil {
		t.Fatalf("zero-weight next hop accepted")
	}
	if err := tb.Install(Route{Prefix: netip.Prefix{}, Local: true}); err == nil {
		t.Fatalf("invalid prefix accepted")
	}
	if err := tb.Install(Route{Prefix: mustPfx("10.0.0.0/8"), Local: true}); err != nil {
		t.Fatalf("local route rejected: %v", err)
	}
}

func TestNormalizeMergesDuplicates(t *testing.T) {
	r := Route{
		Prefix: mustPfx("10.0.0.0/8"),
		NextHops: []NextHop{
			{Node: 5, Link: 7, Weight: 1},
			{Node: 2, Link: 3, Weight: 1},
			{Node: 5, Link: 7, Weight: 1},
		},
	}
	r.Normalize()
	if len(r.NextHops) != 2 {
		t.Fatalf("Normalize = %+v", r.NextHops)
	}
	if r.NextHops[0].Node != 2 || r.NextHops[1].Node != 5 || r.NextHops[1].Weight != 2 {
		t.Fatalf("Normalize = %+v", r.NextHops)
	}
}

func TestRatios(t *testing.T) {
	r := Route{
		Prefix: mustPfx("10.0.0.0/8"),
		NextHops: []NextHop{
			{Node: 1, Weight: 2},
			{Node: 2, Weight: 1},
		},
	}
	ratios := r.Ratios()
	if math.Abs(ratios[1]-2.0/3.0) > 1e-9 || math.Abs(ratios[2]-1.0/3.0) > 1e-9 {
		t.Fatalf("Ratios = %v", ratios)
	}
}

func TestFlowHashDeterministicAndSaltSensitive(t *testing.T) {
	k := FlowKey{
		Src: mustAddr("10.1.0.1"), Dst: mustAddr("10.66.0.1"),
		SrcPort: 1234, DstPort: 80, Proto: 6,
	}
	if k.Hash(1) != k.Hash(1) {
		t.Fatalf("hash not deterministic")
	}
	if k.Hash(1) == k.Hash(2) {
		t.Fatalf("salt has no effect")
	}
	k2 := k
	k2.SrcPort = 1235
	if k.Hash(1) == k2.Hash(1) {
		t.Fatalf("port has no effect")
	}
}

// TestSelectWeightedDistribution verifies the headline data-plane property:
// a route with weights 2:1 splits flows approximately 2/3 : 1/3.
func TestSelectWeightedDistribution(t *testing.T) {
	tb := NewTable(1)
	err := tb.Install(Route{
		Prefix: mustPfx("10.66.0.0/16"),
		NextHops: []NextHop{
			{Node: 100, Weight: 2},
			{Node: 200, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[topo.NodeID]int{}
	const flows = 30000
	for i := 0; i < flows; i++ {
		k := FlowKey{
			Src: mustAddr("10.1.0.9"), Dst: mustAddr("10.66.0.1"),
			SrcPort: uint16(i), DstPort: 80, Proto: 6,
		}
		nh, _, ok := tb.Select(k.Dst, k)
		if !ok {
			t.Fatal("Select failed")
		}
		counts[nh.Node]++
	}
	frac := float64(counts[100]) / flows
	if math.Abs(frac-2.0/3.0) > 0.02 {
		t.Fatalf("weighted split = %.3f, want ~0.667 (counts %v)", frac, counts)
	}
}

func TestSelectEvenDistribution(t *testing.T) {
	tb := NewTable(3)
	err := tb.Install(Route{
		Prefix: mustPfx("10.66.0.0/16"),
		NextHops: []NextHop{
			{Node: 1, Weight: 1},
			{Node: 2, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	const flows = 20000
	for i := 0; i < flows; i++ {
		k := FlowKey{Src: mustAddr("10.1.0.1"), Dst: mustAddr("10.66.0.1"),
			SrcPort: uint16(i), DstPort: 5000, Proto: 17}
		nh, _, _ := tb.Select(k.Dst, k)
		if nh.Node == 1 {
			count++
		}
	}
	frac := float64(count) / flows
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("even split = %.3f", frac)
	}
}

func TestSelectLocal(t *testing.T) {
	tb := NewTable(1)
	if err := tb.Install(Route{Prefix: mustPfx("10.66.0.0/16"), Local: true}); err != nil {
		t.Fatal(err)
	}
	k := FlowKey{Src: mustAddr("1.1.1.1"), Dst: mustAddr("10.66.0.1")}
	nh, r, ok := tb.Select(k.Dst, k)
	if !ok || !r.Local || nh != (NextHop{}) {
		t.Fatalf("local select = %+v, %+v, %v", nh, r, ok)
	}
}

func TestSaltVariesPerRouter(t *testing.T) {
	if NewTable(1).Salt == NewTable(2).Salt {
		t.Fatalf("salts should differ per router")
	}
}

func planeFor(t *testing.T) *Plane {
	t.Helper()
	// 0 -> {1,2} -> 3, destination local at 3.
	p := NewPlane()
	pfx := mustPfx("10.66.0.0/16")
	t0 := NewTable(0)
	if err := t0.Install(Route{Prefix: pfx, NextHops: []NextHop{
		{Node: 1, Weight: 1}, {Node: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	t1 := NewTable(1)
	if err := t1.Install(Route{Prefix: pfx, NextHops: []NextHop{{Node: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	t2 := NewTable(2)
	if err := t2.Install(Route{Prefix: pfx, NextHops: []NextHop{{Node: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	t3 := NewTable(3)
	if err := t3.Install(Route{Prefix: pfx, Local: true}); err != nil {
		t.Fatal(err)
	}
	p.Tables[0], p.Tables[1], p.Tables[2], p.Tables[3] = t0, t1, t2, t3
	return p
}

func TestTraceDelivers(t *testing.T) {
	p := planeFor(t)
	k := FlowKey{Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.66.0.5"), SrcPort: 42, DstPort: 80, Proto: 6}
	path, err := p.Trace(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 3 || len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
}

func TestTraceSpreadsFlows(t *testing.T) {
	p := planeFor(t)
	via := map[topo.NodeID]int{}
	for i := 0; i < 1000; i++ {
		k := FlowKey{Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.66.0.5"),
			SrcPort: uint16(i), DstPort: 80, Proto: 6}
		path, err := p.Trace(0, k)
		if err != nil {
			t.Fatal(err)
		}
		via[path[1]]++
	}
	if via[1] == 0 || via[2] == 0 {
		t.Fatalf("ECMP not exercised: %v", via)
	}
}

func TestTraceDetectsLoop(t *testing.T) {
	p := NewPlane()
	pfx := mustPfx("10.66.0.0/16")
	ta, tb := NewTable(0), NewTable(1)
	if err := ta.Install(Route{Prefix: pfx, NextHops: []NextHop{{Node: 1, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Install(Route{Prefix: pfx, NextHops: []NextHop{{Node: 0, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	p.Tables[0], p.Tables[1] = ta, tb
	k := FlowKey{Src: mustAddr("1.1.1.1"), Dst: mustAddr("10.66.0.1")}
	if _, err := p.Trace(0, k); err == nil {
		t.Fatalf("loop not detected")
	}
}

func TestTraceMissingRoute(t *testing.T) {
	p := NewPlane()
	p.Tables[0] = NewTable(0)
	k := FlowKey{Src: mustAddr("1.1.1.1"), Dst: mustAddr("10.66.0.1")}
	if _, err := p.Trace(0, k); err == nil {
		t.Fatalf("missing route not reported")
	}
}

// Property: Select always returns one of the installed next hops, for any
// flow key.
func TestSelectAlwaysValid(t *testing.T) {
	tb := NewTable(9)
	if err := tb.Install(Route{
		Prefix: mustPfx("0.0.0.0/0"),
		NextHops: []NextHop{
			{Node: 1, Weight: 3}, {Node: 2, Weight: 1}, {Node: 3, Weight: 5},
		},
	}); err != nil {
		t.Fatal(err)
	}
	f := func(sp, dp uint16, proto uint8, a, b, c, d byte) bool {
		k := FlowKey{
			Src:     netip.AddrFrom4([4]byte{a, b, c, d}),
			Dst:     netip.AddrFrom4([4]byte{d, c, b, a}),
			SrcPort: sp, DstPort: dp, Proto: proto,
		}
		nh, _, ok := tb.Select(k.Dst, k)
		return ok && (nh.Node == 1 || nh.Node == 2 || nh.Node == 3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSelect(b *testing.B) {
	tb := NewTable(1)
	if err := tb.Install(Route{
		Prefix:   mustPfx("10.66.0.0/16"),
		NextHops: []NextHop{{Node: 1, Weight: 2}, {Node: 2, Weight: 1}},
	}); err != nil {
		b.Fatal(err)
	}
	k := FlowKey{Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.66.0.1"), SrcPort: 42, DstPort: 80, Proto: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Select(k.Dst, k)
	}
}
