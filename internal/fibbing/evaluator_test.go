package fibbing

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

type zooEntry struct {
	name string
	tp   *topo.Topology
}

// gadget is a hand-built topology with everything the generators never
// produce: asymmetric directed weights, a two-attachment prefix with
// different costs (one node attached twice), a prefix attached at a host,
// stub hosts, and a router (x) the network can reach but that has no way
// back, so it has no route. It has no parallel links: topo allows one
// link per ordered pair.
func gadget() *topo.Topology {
	t := topo.New()
	n := make(map[string]topo.NodeID)
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "x"} {
		n[name] = t.AddNode(name)
	}
	h1, h2 := t.AddHost("h1"), t.AddHost("h2")
	t.AddLink(n["a"], n["b"], 2, topo.LinkOpts{})
	t.AddLink(n["b"], n["c"], 1, topo.LinkOpts{})
	t.AddLink(n["a"], n["d"], 1, topo.LinkOpts{})
	t.AddLink(n["d"], n["c"], 2, topo.LinkOpts{})
	t.AddLink(n["c"], n["e"], 1, topo.LinkOpts{})
	t.AddLink(n["d"], n["e"], 3, topo.LinkOpts{})
	t.AddDirectedLink(n["e"], n["f"], 1, topo.LinkOpts{})
	t.AddDirectedLink(n["f"], n["e"], 4, topo.LinkOpts{})
	t.AddDirectedLink(n["f"], n["a"], 2, topo.LinkOpts{})
	t.AddDirectedLink(n["a"], n["f"], 5, topo.LinkOpts{})
	t.AddDirectedLink(n["b"], n["x"], 1, topo.LinkOpts{}) // x: in, never out
	t.AddLink(h1, n["a"], 1, topo.LinkOpts{})
	t.AddLink(h2, n["e"], 1, topo.LinkOpts{})
	t.AddPrefix(netip.MustParsePrefix("10.1.0.0/16"), "multi",
		topo.Attachment{Node: n["e"], Cost: 7},
		topo.Attachment{Node: n["c"], Cost: 2},
		topo.Attachment{Node: n["e"], Cost: 1}) // e again: the last cost counts
	t.AddPrefix(netip.MustParsePrefix("10.2.0.0/16"), "athost", topo.Attachment{Node: h2, Cost: 0})
	t.AddPrefix(netip.MustParsePrefix("10.3.0.0/16"), "single", topo.Attachment{Node: n["f"], Cost: 0})
	return t
}

// zoo is the topology set of the equivalence tests.
func zoo() []zooEntry {
	abilene := topo.Abilene(10e6, 0)
	waxman := topo.Waxman(topo.WaxmanOpts{Nodes: 16, MaxWeight: 6, Seed: 13})
	return []zooEntry{
		{"fig1", topo.Fig1(topo.Fig1Opts{})},
		{"fattree4", topo.FatTree(topo.FatTreeOpts{K: 4})},
		{"fattree4-jitter", topo.FatTree(topo.FatTreeOpts{K: 4, MaxWeight: 5, Seed: 2})},
		{"ring9-chords", topo.Ring(topo.RingOpts{N: 9, MaxWeight: 4, Seed: 5, Chords: 3})},
		{"waxman16", waxman},
		{"abilene", abilene},
		{"gadget", gadget()},
		{"abilene-cut", abilene.CloneWithoutLinks(abilene.Links()[0].ID, abilene.Links()[9].ID)},
		{"waxman16-cut", waxman.CloneWithoutLinks(waxman.Links()[3].ID)},
	}
}

// randomLies draws a lie set aimed at the evaluator's corner cases: lies
// stacked on one attach router at different costs, costs that tie with
// the router's real route or with another router's, own fakes over a
// next hop the IGP already uses, and (rarely) a fake hung off a host.
func randomLies(rng *rand.Rand, tp *topo.Topology, p topo.Prefix, igp map[topo.NodeID]RouteView) []Lie {
	nodes := tp.Nodes()
	var lies []Lie
	var attach topo.NodeID
	for i, n := 0, rng.Intn(7); i < n; i++ {
		if i == 0 || rng.Intn(3) > 0 { // else stack on the previous attach
			attach = nodes[rng.Intn(len(nodes))].ID
			if nodes[attach].Host && rng.Intn(4) > 0 {
				continue
			}
		}
		out := tp.OutLinks(attach)
		if len(out) == 0 {
			continue
		}
		via := tp.Link(out[rng.Intn(len(out))]).To
		if v, ok := igp[attach]; ok && len(v.NextHops) > 0 && rng.Intn(3) == 0 {
			for nh := range v.NextHops { // own fake over a live IGP next hop
				via = nh
				break
			}
		}
		own := igp[attach].Dist
		if own == spf.Infinity {
			own = 3
		}
		var cost int64
		switch rng.Intn(6) {
		case 0:
			cost = 0
		case 1:
			cost = own // ties with attach's real route
		case 2:
			cost = max(own-1, 0)
		case 3:
			cost = own + 1
		case 4:
			// Tie at some other router u: cost = igp(u) - dist(u -> attach).
			u := nodes[rng.Intn(len(nodes))].ID
			if d := spf.ComputeRouters(spf.FromTopology(tp), tp, u).Dist[attach]; d != spf.Infinity && igp[u].Dist != spf.Infinity {
				cost = max(igp[u].Dist-d, 0)
			}
		default:
			cost = rng.Int63n(12)
		}
		lies = append(lies, Lie{Prefix: p.Prefix, Attach: attach, Via: via, Cost: cost})
	}
	return lies
}

// sameOutcome compares one question's answers from both implementations.
func sameOutcome(got map[topo.NodeID]RouteView, gotErr error, want map[topo.NodeID]RouteView, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		for u, w := range want {
			if g := got[u]; !reflect.DeepEqual(g, w) {
				return fmt.Errorf("router %d: %+v, reference %+v", u, g, w)
			}
		}
		return fmt.Errorf("%d views, reference %d", len(got), len(want))
	}
	return nil
}

// TestEvaluatorMatchesReference is the equivalence property: over the
// topology zoo and 300 random lie sets per prefix, one shared Evaluator
// (so its tree cache and IGP memo are exercised across questions) answers
// exactly what the per-router-Dijkstra reference answers.
func TestEvaluatorMatchesReference(t *testing.T) {
	for zi, z := range zoo() {
		ev := NewEvaluator(z.tp)
		for _, p := range z.tp.Prefixes() {
			igp, err := ReferenceIGPView(z.tp, p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", z.name, p.Name, err)
			}
			got, gotErr := ev.IGPView(p.Name)
			if err := sameOutcome(got, gotErr, igp, nil); err != nil {
				t.Fatalf("%s/%s: IGP view: %v", z.name, p.Name, err)
			}
			rng := rand.New(rand.NewSource(int64(1000*zi) + 7))
			for i := 0; i < 300; i++ {
				lies := randomLies(rng, z.tp, p, igp)
				want, wantErr := ReferenceEvaluate(z.tp, p.Name, lies)
				got, gotErr := ev.Evaluate(p.Name, lies)
				if err := sameOutcome(got, gotErr, want, wantErr); err != nil {
					t.Fatalf("%s/%s set %d %v: %v", z.name, p.Name, i, lies, err)
				}
				if i%50 == 0 { // the uncached wrapper answers the same
					got, gotErr = Evaluate(z.tp, p.Name, lies)
					if err := sameOutcome(got, gotErr, want, wantErr); err != nil {
						t.Fatalf("%s/%s set %d (wrapper): %v", z.name, p.Name, i, err)
					}
				}
			}
		}
	}
}

// TestEvaluatorCornerCases pins by hand the cases the random draw is
// meant to hit, so none of them depends on the seed.
func TestEvaluatorCornerCases(t *testing.T) {
	tp := gadget()
	n := tp.MustNode
	multi, _ := tp.PrefixByName("multi")
	single, _ := tp.PrefixByName("single")
	athost, _ := tp.PrefixByName("athost")
	lie := func(p topo.Prefix, attach, via string, cost int64) Lie {
		return Lie{Prefix: p.Prefix, Attach: n(attach), Via: n(via), Cost: cost}
	}
	cases := []struct {
		name   string
		prefix string
		lies   []Lie
	}{
		{"no lies, multi-attachment", "multi", nil},
		{"no lies, host attachment", "athost", nil},
		{"stacked lies, different costs", "multi", []Lie{lie(multi, "a", "b", 3), lie(multi, "a", "d", 3), lie(multi, "a", "d", 9), lie(multi, "a", "b", 0)}},
		{"lie ties with real attachment at the attach router", "multi", []Lie{lie(multi, "a", "b", 5)}},
		{"lie ties with real attachment elsewhere", "multi", []Lie{lie(multi, "d", "e", 4), lie(multi, "b", "a", 3)}},
		{"own fake and transit through the same via", "multi", []Lie{lie(multi, "a", "d", 5), lie(multi, "d", "c", 4), lie(multi, "d", "c", 4)}},
		{"cost-0 pins", "single", []Lie{lie(single, "a", "b", 0), lie(single, "b", "c", 0), lie(single, "c", "e", 0)}},
		{"fakes over the a-b and b-c links", "single", []Lie{lie(single, "b", "a", 2), lie(single, "c", "b", 1)}},
		{"fake hung off a host", "athost", []Lie{lie(athost, "h1", "a", 0), lie(athost, "a", "d", 1)}},
		{"fake on the router with no route", "single", []Lie{lie(single, "b", "x", 0)}},
		{"cost near overflow", "single", []Lie{lie(single, "a", "b", spf.Infinity-1)}},
		{"unknown prefix", "nope", nil},
		{"wrong-prefix lie", "single", []Lie{lie(multi, "a", "b", 1)}},
		{"non-neighbour via", "single", []Lie{lie(single, "a", "e", 1)}},
		{"negative cost", "single", []Lie{lie(single, "a", "b", -1)}},
		{"first bad lie wins", "single", []Lie{lie(single, "a", "b", -1), lie(multi, "a", "b", 1)}},
	}
	ev := NewEvaluator(tp)
	for _, c := range cases {
		want, wantErr := ReferenceEvaluate(tp, c.prefix, c.lies)
		got, gotErr := ev.Evaluate(c.prefix, c.lies)
		if err := sameOutcome(got, gotErr, want, wantErr); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	// The x router really has no route, and the tie case really ties: the
	// table above must not pass by never reaching those branches.
	views, _ := ev.Evaluate("single", nil)
	if v := views[n("x")]; v.Dist != spf.Infinity || len(v.NextHops) != 0 {
		t.Errorf("x should have no route, got %+v", v)
	}
	views, _ = ev.Evaluate("multi", []Lie{lie(multi, "a", "b", 5)})
	if v := views[n("a")]; v.NextHops[n("b")] != 2 || v.NextHops[n("d")] != 1 {
		t.Errorf("a should keep {b,d} and gain one path via b, got %+v", v)
	}
}

// TestEvaluatorMutationContract pins the snapshot contract from both
// sides: the package-level wrappers see a SetWeight at once because they
// never cache, and an Evaluator keeps answering for the snapshot it has
// built trees for.
func TestEvaluatorMutationContract(t *testing.T) {
	tp := fig1()
	ev := NewEvaluator(tp)
	before, err := ev.IGPView(topo.Fig1BluePrefixName)
	if err != nil {
		t.Fatal(err)
	}
	l := tp.MustLinkBetween(topo.Fig1B, topo.Fig1R2)
	tp.SetWeight(l.ID, l.Weight+10)
	fresh, err := IGPView(tp, topo.Fig1BluePrefixName)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ReferenceIGPView(tp, topo.Fig1BluePrefixName)
	if !reflect.DeepEqual(fresh, want) {
		t.Fatalf("wrapper after SetWeight: %v, reference %v", fresh, want)
	}
	if reflect.DeepEqual(fresh, before) {
		t.Fatal("the weight change should have moved a route")
	}
	stale, _ := ev.IGPView(topo.Fig1BluePrefixName)
	if !reflect.DeepEqual(stale, before) {
		t.Fatal("an evaluator must keep answering for its snapshot")
	}
}

// fatTreeLies returns 20 lies on a unit fat-tree k=4: one per transit
// router, equal-cost or cost-0, plus a second on the first router, so
// ties, own fakes, overrides and stacking all occur.
func fatTreeLies(tb testing.TB, tp *topo.Topology) []Lie {
	tb.Helper()
	p, _ := tp.PrefixByName(topo.FatTreePrefixName)
	igp, err := ReferenceIGPView(tp, p.Name)
	if err != nil {
		tb.Fatal(err)
	}
	var lies []Lie
	for _, node := range tp.Nodes() {
		v := igp[node.ID]
		if node.Host || v.Local {
			continue
		}
		cost := v.Dist
		if len(lies)%3 == 0 {
			cost = 0
		}
		lies = append(lies, Lie{Prefix: p.Prefix, Attach: node.ID, Via: tp.Link(tp.OutLinks(node.ID)[0]).To, Cost: cost})
	}
	second := lies[0]
	second.Via = tp.Link(tp.OutLinks(second.Attach)[1]).To
	lies = append(lies, second)
	if len(lies) != 20 {
		tb.Fatalf("built %d lies, want 20", len(lies))
	}
	return lies
}

// TestWarmEvaluateAllocations is the cost guard: once an evaluator holds
// the trees a lie set needs, evaluating it again allocates only what it
// returns — the view map and one small next-hop map per router — and runs
// no Dijkstra. One spf.Compute alone allocates a slice per graph node, so
// a single rebuilt tree breaks the bound.
func TestWarmEvaluateAllocations(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 4})
	lies := fatTreeLies(t, tp)
	ev := NewEvaluator(tp)
	if _, err := ev.Evaluate(topo.FatTreePrefixName, lies); err != nil {
		t.Fatal(err)
	}
	routers := 0
	for _, n := range tp.Nodes() {
		if !n.Host {
			routers++
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ev.Evaluate(topo.FatTreePrefixName, lies); err != nil {
			t.Fatal(err)
		}
	})
	// Per router: the map header and its first bucket; plus the view
	// map's own storage and the target list.
	if limit := float64(2*routers + 12); allocs > limit {
		t.Fatalf("warm Evaluate: %.0f allocations for %d routers, limit %.0f", allocs, routers, limit)
	}
	if one := tp.NumNodes(); allocs >= float64(one+2*routers) {
		t.Fatalf("bound is not tight enough to notice one spf.Compute (%d allocations)", one)
	}
}
