package topo

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAddNodeAndLookup(t *testing.T) {
	tp := New()
	a := tp.AddNode("A")
	b := tp.AddHost("S1")
	if got := tp.Node(a).Name; got != "A" {
		t.Fatalf("Node(a).Name = %q, want A", got)
	}
	if !tp.Node(b).Host {
		t.Fatalf("S1 should be a host")
	}
	if id, ok := tp.NodeByName("A"); !ok || id != a {
		t.Fatalf("NodeByName(A) = %v, %v", id, ok)
	}
	if _, ok := tp.NodeByName("Z"); ok {
		t.Fatalf("NodeByName(Z) should miss")
	}
	if tp.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", tp.NumNodes())
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	tp := New()
	tp.AddNode("A")
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate AddNode should panic")
		}
	}()
	tp.AddNode("A")
}

func TestAddLinkSymmetry(t *testing.T) {
	tp := New()
	a := tp.AddNode("A")
	b := tp.AddNode("B")
	ab, ba := tp.AddLink(a, b, 3, LinkOpts{Capacity: 1e6, Delay: time.Millisecond})
	la, lb := tp.Link(ab), tp.Link(ba)
	if la.Reverse != ba || lb.Reverse != ab {
		t.Fatalf("reverse pointers wrong: %v %v", la.Reverse, lb.Reverse)
	}
	if la.From != a || la.To != b || lb.From != b || lb.To != a {
		t.Fatalf("endpoints wrong")
	}
	if la.Weight != 3 || lb.Weight != 3 {
		t.Fatalf("weights wrong")
	}
	if len(tp.OutLinks(a)) != 1 || len(tp.InLinks(a)) != 1 {
		t.Fatalf("adjacency lists wrong")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	tp := New()
	a := tp.AddNode("A")
	defer func() {
		if recover() == nil {
			t.Fatalf("self-loop should panic")
		}
	}()
	tp.AddDirectedLink(a, a, 1, LinkOpts{})
}

func TestBadWeightPanics(t *testing.T) {
	tp := New()
	a, b := tp.AddNode("A"), tp.AddNode("B")
	defer func() {
		if recover() == nil {
			t.Fatalf("weight 0 should panic")
		}
	}()
	tp.AddDirectedLink(a, b, 0, LinkOpts{})
}

// TestParallelLinksRejected: a second link between one ordered pair is
// refused by every way in, so FindLink has exactly one answer.
func TestParallelLinksRejected(t *testing.T) {
	mustPanic := func(what string, add func(tp *Topology, a, b NodeID)) {
		t.Helper()
		tp := New()
		a, b := tp.AddNode("A"), tp.AddNode("B")
		tp.AddDirectedLink(a, b, 5, LinkOpts{})
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s should panic", what)
			}
		}()
		add(tp, a, b)
	}
	mustPanic("AddDirectedLink a->b twice", func(tp *Topology, a, b NodeID) { tp.AddDirectedLink(a, b, 2, LinkOpts{}) })
	mustPanic("AddLink over a->b", func(tp *Topology, a, b NodeID) { tp.AddLink(a, b, 2, LinkOpts{}) })
	mustPanic("AddLink over b->a", func(tp *Topology, a, b NodeID) { tp.AddLink(b, a, 2, LinkOpts{}) })

	for _, c := range []struct{ src, line string }{
		{"router A\nrouter B\nlink A B\ndlink B A weight 2\n", "line 4"},
		{"router A\nrouter B\ndlink B A\n\nlink A B\n", "line 5"},
		{"router A\nrouter B\ndlink A B\ndlink A B weight 3\n", "line 4"},
	} {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.line) {
			t.Errorf("Parse(%q) = %v; want an error naming %s", c.src, err, c.line)
		}
	}

	tp := New()
	a, b := tp.AddNode("A"), tp.AddNode("B")
	ab := tp.AddDirectedLink(a, b, 5, LinkOpts{})
	if l, ok := tp.FindLink(a, b); !ok || l.ID != ab {
		t.Fatalf("FindLink(a, b) = %+v, %v; want link %d", l, ok, ab)
	}
	if _, ok := tp.FindLink(b, a); ok {
		t.Fatalf("no reverse link expected")
	}
}

func TestValidateConnectivity(t *testing.T) {
	tp := New()
	tp.AddNode("A")
	tp.AddNode("B")
	if err := tp.Validate(); err == nil {
		t.Fatalf("disconnected topology should fail validation")
	}
	tp2 := New()
	a, b := tp2.AddNode("A"), tp2.AddNode("B")
	tp2.AddLink(a, b, 1, LinkOpts{})
	if err := tp2.Validate(); err != nil {
		t.Fatalf("connected topology failed: %v", err)
	}
}

// TestValidateStopsAtHosts: routers a and b joined only through host h
// share no IGP adjacency, so the router graph is not connected.
func TestValidateStopsAtHosts(t *testing.T) {
	tp := New()
	a, h, b := tp.AddNode("a"), tp.AddHost("h"), tp.AddNode("b")
	tp.AddLink(a, h, 1, LinkOpts{})
	tp.AddLink(h, b, 1, LinkOpts{})
	if err := tp.Validate(); err == nil {
		t.Fatal("routers joined only through a host passed validation")
	}
	tp.AddLink(a, b, 1, LinkOpts{})
	if err := tp.Validate(); err != nil {
		t.Fatalf("with a router link a-b: %v", err)
	}
}

func TestValidatePrefixNeedsAttachment(t *testing.T) {
	tp := New()
	a, b := tp.AddNode("A"), tp.AddNode("B")
	tp.AddLink(a, b, 1, LinkOpts{})
	tp.prefixes = append(tp.prefixes, Prefix{Prefix: netip.MustParsePrefix("10.0.0.0/8")})
	if err := tp.Validate(); err == nil {
		t.Fatalf("prefix without attachment should fail validation")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tp := Fig1(Fig1Opts{WithHosts: true})
	c := tp.Clone()
	l := tp.MustLinkBetween(Fig1A, Fig1B)
	c.SetWeight(l.ID, 99)
	if tp.Link(l.ID).Weight == 99 {
		t.Fatalf("Clone shares link storage with original")
	}
	if c.NumNodes() != tp.NumNodes() || c.NumLinks() != tp.NumLinks() {
		t.Fatalf("clone size mismatch")
	}
	if _, ok := c.NodeByName(Fig1S1); !ok {
		t.Fatalf("clone lost node names")
	}
}

func TestFig1Structure(t *testing.T) {
	tp := Fig1(Fig1Opts{})
	if err := tp.Validate(); err != nil {
		t.Fatalf("Fig1 invalid: %v", err)
	}
	if tp.NumNodes() != 7 {
		t.Fatalf("Fig1 has %d nodes, want 7 routers", tp.NumNodes())
	}
	// The paper's marked weights.
	for _, tc := range []struct {
		a, b string
		w    int64
	}{
		{Fig1A, Fig1B, 1}, {Fig1A, Fig1R1, 2}, {Fig1B, Fig1R2, 1},
		{Fig1B, Fig1R3, 2}, {Fig1R2, Fig1C, 1}, {Fig1R3, Fig1C, 1},
		{Fig1R1, Fig1R4, 1}, {Fig1R4, Fig1C, 2},
	} {
		l := tp.MustLinkBetween(tc.a, tc.b)
		if l.Weight != tc.w {
			t.Errorf("weight(%s-%s) = %d, want %d", tc.a, tc.b, l.Weight, tc.w)
		}
		r := tp.Link(l.Reverse)
		if r.Weight != tc.w {
			t.Errorf("weight(%s-%s) = %d, want %d", tc.b, tc.a, r.Weight, tc.w)
		}
	}
	p, ok := tp.PrefixByName(Fig1BluePrefixName)
	if !ok {
		t.Fatalf("blue prefix missing")
	}
	if p.Attachments[0].Node != tp.MustNode(Fig1C) {
		t.Fatalf("blue prefix should attach at C")
	}
}

func TestFig1WithHosts(t *testing.T) {
	tp := Fig1(Fig1Opts{WithHosts: true})
	if err := tp.Validate(); err != nil {
		t.Fatalf("Fig1 with hosts invalid: %v", err)
	}
	for _, h := range []string{Fig1S1, Fig1S2, Fig1D1, Fig1D2} {
		n := tp.MustNode(h)
		if !tp.Node(n).Host {
			t.Errorf("%s should be a host", h)
		}
	}
}

func TestFig1Demands(t *testing.T) {
	tp := Fig1(Fig1Opts{})
	d := Fig1Demands(tp, 100)
	if len(d) != 2 {
		t.Fatalf("want 2 demands, got %d", len(d))
	}
	if d[0].Ingress != tp.MustNode(Fig1B) || d[1].Ingress != tp.MustNode(Fig1A) {
		t.Fatalf("demand ingresses wrong: %+v", d)
	}
	for _, dd := range d {
		if dd.Volume != 100 || dd.PrefixName != Fig1BluePrefixName {
			t.Fatalf("demand fields wrong: %+v", dd)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := Fig1(Fig1Opts{WithHosts: true, Delay: time.Millisecond})
	parsed, err := Parse(strings.NewReader(src.String()))
	if err != nil {
		t.Fatalf("Parse(String()) failed: %v", err)
	}
	if parsed.NumNodes() != src.NumNodes() || parsed.NumLinks() != src.NumLinks() {
		t.Fatalf("round trip size mismatch: %d/%d nodes, %d/%d links",
			parsed.NumNodes(), src.NumNodes(), parsed.NumLinks(), src.NumLinks())
	}
	for _, l := range src.Links() {
		got, ok := parsed.FindLink(
			parsed.MustNode(src.Name(l.From)), parsed.MustNode(src.Name(l.To)))
		if !ok {
			t.Fatalf("round trip lost link %s->%s", src.Name(l.From), src.Name(l.To))
		}
		if got.Weight != l.Weight || got.Capacity != l.Capacity || got.Delay != l.Delay {
			t.Fatalf("round trip changed link %s->%s: %+v vs %+v",
				src.Name(l.From), src.Name(l.To), got, l)
		}
	}
	if len(parsed.Prefixes()) != len(src.Prefixes()) {
		t.Fatalf("round trip lost prefixes")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"frobnicate A",
		"link A B",           // unknown nodes
		"router A\nrouter A", // duplicate
		"router A\nrouter B\nlink A B weight 0",
		"router A\nrouter B\nlink A B weight x",
		"router A\nrouter B\nlink A B capacity -3",
		"router A\nrouter B\nlink A B delay notaduration",
		"router A\nrouter B\nlink A B weight",
		"prefix 10.0.0.0/8",            // no attachment
		"router A\nprefix banana at A", // bad CIDR
		"router A\nprefix 10.0.0.0/8 at Z",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestParseBits(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"10M", 10e6}, {"1.5G", 1.5e9}, {"250K", 250e3}, {"42", 42},
		{"10m", 10e6}, {"2g", 2e9}, {"7k", 7e3},
	} {
		got, err := ParseBits(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBits(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "-1M", "xM", "1Q1"} {
		if _, err := ParseBits(bad); err == nil {
			t.Errorf("ParseBits(%q) should fail", bad)
		}
	}
}

func TestParseDemandSpec(t *testing.T) {
	tp := Fig1(Fig1Opts{})
	d, err := ParseDemandSpec(tp, "B:blue:8M")
	if err != nil {
		t.Fatal(err)
	}
	if d.Ingress != tp.MustNode("B") || d.PrefixName != "blue" || d.Volume != 8e6 {
		t.Fatalf("demand = %+v", d)
	}
	for _, bad := range []string{
		"", "B:blue", "ZZ:blue:1M", "B:nope:1M", "B:blue:xx", "B:blue:0",
	} {
		if _, err := ParseDemandSpec(tp, bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestFormatBitsRoundTrip(t *testing.T) {
	f := func(mbit uint16) bool {
		v := float64(mbit) * 1e6
		got, err := ParseBits(FormatBits(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tp := RandomConnected(RandomOpts{Nodes: 25, Degree: 3, Prefixes: 2, Seed: seed})
		if err := tp.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(RandomOpts{Nodes: 12, Degree: 3, Prefixes: 1, Seed: 7})
	b := RandomConnected(RandomOpts{Nodes: 12, Degree: 3, Prefixes: 1, Seed: 7})
	if a.String() != b.String() {
		t.Fatalf("same seed produced different topologies")
	}
	c := RandomConnected(RandomOpts{Nodes: 12, Degree: 3, Prefixes: 1, Seed: 8})
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical topologies (suspicious)")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4, 1e6)
	if err := g.Validate(); err != nil {
		t.Fatalf("grid invalid: %v", err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("grid nodes = %d, want 12", g.NumNodes())
	}
	// 3x4 grid: 3*3 horizontal + 2*4 vertical = 17 undirected = 34 directed.
	if g.NumLinks() != 34 {
		t.Fatalf("grid links = %d, want 34", g.NumLinks())
	}
}

func TestRandomDemands(t *testing.T) {
	tp := RandomConnected(RandomOpts{Nodes: 10, Degree: 3, Prefixes: 2, Seed: 1})
	ds := RandomDemands(tp, 20, 1e6, 5e6, 42)
	if len(ds) != 20 {
		t.Fatalf("want 20 demands")
	}
	for _, d := range ds {
		if d.Volume < 1e6 || d.Volume > 5e6 {
			t.Fatalf("volume out of range: %v", d.Volume)
		}
		p, ok := tp.PrefixByName(d.PrefixName)
		if !ok {
			t.Fatalf("demand references unknown prefix %q", d.PrefixName)
		}
		for _, a := range p.Attachments {
			if a.Node == d.Ingress {
				t.Fatalf("demand ingress == prefix attachment")
			}
		}
	}
}

func TestSetWeight(t *testing.T) {
	tp := Fig1(Fig1Opts{})
	l := tp.MustLinkBetween(Fig1A, Fig1B)
	before := tp.Version()
	tp.SetWeight(l.ID, 7)
	if tp.Link(l.ID).Weight != 7 {
		t.Fatalf("SetWeight did not apply")
	}
	if tp.Version() != before+1 {
		t.Fatalf("version %d after one SetWeight from %d", tp.Version(), before)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("SetWeight(0) should panic")
		}
	}()
	tp.SetWeight(l.ID, 0)
}

func TestCloneWithoutLinks(t *testing.T) {
	tp := Fig1(Fig1Opts{})
	victim := tp.MustLinkBetween(Fig1B, Fig1R2)
	c := tp.CloneWithoutLinks(victim.ID)

	if c.NumNodes() != tp.NumNodes() {
		t.Fatalf("clone nodes = %d, want %d", c.NumNodes(), tp.NumNodes())
	}
	if c.NumLinks() != tp.NumLinks()-2 {
		t.Fatalf("clone links = %d, want %d (pair removed)", c.NumLinks(), tp.NumLinks()-2)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Node IDs are preserved: names resolve identically in both.
	for _, n := range tp.Nodes() {
		if c.Name(n.ID) != n.Name {
			t.Fatalf("node %d renamed %q -> %q", n.ID, n.Name, c.Name(n.ID))
		}
	}
	// The dropped pair is gone in both directions.
	if _, ok := c.FindLink(tp.MustNode(Fig1B), tp.MustNode(Fig1R2)); ok {
		t.Fatalf("dropped link still present")
	}
	if _, ok := c.FindLink(tp.MustNode(Fig1R2), tp.MustNode(Fig1B)); ok {
		t.Fatalf("dropped reverse still present")
	}
	// Every surviving link keeps its endpoints/attributes and a
	// consistent reverse pointer under the new dense IDs.
	for _, l := range c.Links() {
		orig, ok := tp.FindLink(l.From, l.To)
		if !ok {
			t.Fatalf("clone link %s->%s not in original", c.Name(l.From), c.Name(l.To))
		}
		if orig.Weight != l.Weight || orig.Capacity != l.Capacity || orig.Delay != l.Delay {
			t.Fatalf("clone link %s->%s attributes changed", c.Name(l.From), c.Name(l.To))
		}
	}
	// Prefixes survive with their attachments.
	if len(c.Prefixes()) != len(tp.Prefixes()) {
		t.Fatalf("clone prefixes = %d, want %d", len(c.Prefixes()), len(tp.Prefixes()))
	}
	// The original is untouched.
	if _, ok := tp.FindLink(tp.MustNode(Fig1B), tp.MustNode(Fig1R2)); !ok {
		t.Fatalf("original mutated")
	}
}
