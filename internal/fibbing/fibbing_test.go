package fibbing

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

func fig1() *topo.Topology { return topo.Fig1(topo.Fig1Opts{}) }

func nodeByName(t *topo.Topology, name string) topo.NodeID { return t.MustNode(name) }

func TestIGPViewFig1a(t *testing.T) {
	tp := fig1()
	views, err := IGPView(tp, topo.Fig1BluePrefixName)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := tp.MustNode("A"), tp.MustNode("B"), tp.MustNode("C")
	if !views[c].Local {
		t.Fatalf("C should be local")
	}
	if views[a].Dist != 3 || len(views[a].NextHops) != 1 || views[a].NextHops[b] != 1 {
		t.Fatalf("A view = %+v", views[a])
	}
	if views[b].Dist != 2 || views[b].NextHops[tp.MustNode("R2")] != 1 || len(views[b].NextHops) != 1 {
		t.Fatalf("B view = %+v", views[b])
	}
}

// TestFig1cAugmentation pins the headline result: the paper's requirement
// is realised by exactly three lies with the paper's costs — fB at B with
// cost 2 via R3, and two fA at A with cost 3 via R1.
func TestFig1cAugmentation(t *testing.T) {
	tp := fig1()
	dag := Fig1DAG(tp)
	aug, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	if aug.LieCount() != 3 {
		t.Fatalf("lie count = %d, want 3: %v", aug.LieCount(), aug.Lies)
	}
	a, b := tp.MustNode("A"), tp.MustNode("B")
	r1, r3 := tp.MustNode("R1"), tp.MustNode("R3")
	var fB, fA int
	for _, l := range aug.Lies {
		switch {
		case l.Attach == b && l.Via == r3 && l.Cost == 2:
			fB++
		case l.Attach == a && l.Via == r1 && l.Cost == 3:
			fA++
		default:
			t.Fatalf("unexpected lie %v", l)
		}
	}
	if fB != 1 || fA != 2 {
		t.Fatalf("fB=%d fA=%d, want 1 and 2", fB, fA)
	}
	if err := Verify(tp, topo.Fig1BluePrefixName, aug.Lies, dag); err != nil {
		t.Fatal(err)
	}
}

func TestFig1dSplitRatios(t *testing.T) {
	tp := fig1()
	dag := Fig1DAG(tp)
	aug, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	views, err := Evaluate(tp, topo.Fig1BluePrefixName, aug.Lies)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tp.MustNode("A"), tp.MustNode("B")
	// A: 1/3 to B, 2/3 to R1.
	av := views[a].NextHops
	if av[b] != 1 || av[tp.MustNode("R1")] != 2 {
		t.Fatalf("A splits = %v", av)
	}
	// B: even between R2 and R3.
	bv := views[b].NextHops
	if bv[tp.MustNode("R2")] != 1 || bv[tp.MustNode("R3")] != 1 {
		t.Fatalf("B splits = %v", bv)
	}
}

func TestAddPathsNoopWhenSatisfied(t *testing.T) {
	tp := fig1()
	dag := DAG{tp.MustNode("A"): NextHopWeights{tp.MustNode("B"): 1}}
	aug, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	if aug.LieCount() != 0 {
		t.Fatalf("satisfied requirement produced %d lies", aug.LieCount())
	}
}

func TestAddPathsRejectsRemoval(t *testing.T) {
	tp := fig1()
	// A's IGP next hop is B; requiring R1-only removes it.
	dag := DAG{tp.MustNode("A"): NextHopWeights{tp.MustNode("R1"): 1}}
	if _, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag); err == nil {
		t.Fatalf("removal requirement accepted by add-paths")
	}
}

func TestAddPathsRejectsAttachmentRouter(t *testing.T) {
	tp := fig1()
	dag := DAG{tp.MustNode("C"): NextHopWeights{tp.MustNode("R2"): 1}}
	if _, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag); err == nil {
		t.Fatalf("constraining attachment router accepted")
	}
}

func TestDAGValidate(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{WithHosts: true})
	bad := []DAG{
		{tp.MustNode("A"): NextHopWeights{tp.MustNode("R2"): 1}}, // not a neighbor
		{tp.MustNode("A"): NextHopWeights{tp.MustNode("B"): 0}},  // zero weight
		{tp.MustNode("A"): NextHopWeights{}},                     // empty
		{tp.MustNode("S1"): NextHopWeights{tp.MustNode("B"): 1}}, // host
	}
	for i, d := range bad {
		if err := d.Validate(tp); err == nil {
			t.Errorf("case %d: invalid DAG accepted", i)
		}
	}
}

// TestPinAllOverridesIGP exercises the general augmentation: force B to use
// R3 only (removing the IGP path via R2), which add-paths cannot do.
func TestPinAllOverridesIGP(t *testing.T) {
	tp := fig1()
	dag := DAG{tp.MustNode("B"): NextHopWeights{tp.MustNode("R3"): 1}}
	aug, err := AugmentPinAll(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tp, topo.Fig1BluePrefixName, aug.Lies, dag); err != nil {
		t.Fatal(err)
	}
	views, err := Evaluate(tp, topo.Fig1BluePrefixName, aug.Lies)
	if err != nil {
		t.Fatal(err)
	}
	b := views[tp.MustNode("B")]
	if len(b.NextHops) != 1 || b.NextHops[tp.MustNode("R3")] == 0 {
		t.Fatalf("B pinned = %v", b.NextHops)
	}
	// A must still reach the prefix (its routing is pinned to IGP).
	a := views[tp.MustNode("A")]
	if a.NextHops[tp.MustNode("B")] == 0 {
		t.Fatalf("A = %v", a.NextHops)
	}

	// Compile takes the same fallback: add-paths cannot remove B's IGP
	// next hop, so it pins, reduces and verifies, and says it pinned.
	ev := NewEvaluator(tp)
	red, err := ReduceLies(tp, topo.Fig1BluePrefixName, aug, dag)
	if err != nil {
		t.Fatal(err)
	}
	got, pinned, err := ev.Compile(topo.Fig1BluePrefixName, dag)
	if err != nil || !pinned || !reflect.DeepEqual(got.Lies, red.Lies) {
		t.Fatalf("Compile = %v, pinned %v, %v; want the reduced pin-all %v", got, pinned, err, red.Lies)
	}
	// The Figure 1c requirement only adds paths: no pin, the paper's
	// three lies.
	got, pinned, err = ev.Compile(topo.Fig1BluePrefixName, Fig1DAG(tp))
	if err != nil || pinned || got.LieCount() != 3 {
		t.Fatalf("Compile(Fig1DAG) = %v, pinned %v, %v; want 3 add-paths lies", got, pinned, err)
	}
	// B also forwarding to A is a valid add-paths requirement, but A's
	// own route runs through B: Verify finds the loop and Compile
	// refuses the lies. A requirement over a non-link fails both
	// compilers.
	loop := DAG{tp.MustNode("B"): {tp.MustNode("R2"): 1, tp.MustNode("A"): 1}}
	if _, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, loop); err != nil {
		t.Fatalf("add-paths refused the looping requirement itself: %v", err)
	}
	if got, _, err := ev.Compile(topo.Fig1BluePrefixName, loop); err == nil || !strings.Contains(err.Error(), "refusing unverifiable augmentation") {
		t.Fatalf("Compile(loop) = %v, %v; want a Verify refusal", got, err)
	}
	bad := DAG{tp.MustNode("B"): {tp.MustNode("C"): 1}}
	if got, _, err := ev.Compile(topo.Fig1BluePrefixName, bad); err == nil || !strings.Contains(err.Error(), "is not a link") {
		t.Fatalf("Compile(B->C) = %v, %v; want the DAG error", got, err)
	}
}

func TestPinAllRealisesFig1DAG(t *testing.T) {
	tp := fig1()
	dag := Fig1DAG(tp)
	aug, err := AugmentPinAll(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(tp, topo.Fig1BluePrefixName, aug.Lies, dag); err != nil {
		t.Fatal(err)
	}
	// Pin-all lies to every non-attachment router.
	if aug.LieCount() <= 3 {
		t.Fatalf("pin-all suspiciously small: %d", aug.LieCount())
	}
}

func TestReduceLiesShrinksPinAll(t *testing.T) {
	tp := fig1()
	dag := Fig1DAG(tp)
	aug, err := AugmentPinAll(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceLies(tp, topo.Fig1BluePrefixName, aug, dag)
	if err != nil {
		t.Fatal(err)
	}
	if red.LieCount() >= aug.LieCount() {
		t.Fatalf("reduction did not shrink: %d -> %d", aug.LieCount(), red.LieCount())
	}
	if err := Verify(tp, topo.Fig1BluePrefixName, red.Lies, dag); err != nil {
		t.Fatalf("reduced lies no longer verify: %v", err)
	}
	// The constrained routers must still carry lies (their requirement
	// differs from IGP routing). Unconstrained routers may keep pins when
	// removing them would let a remote cost-0 fake attract them at equal
	// cost — the reducer is deliberately conservative there.
	hasLie := map[string]bool{}
	for _, l := range red.Lies {
		hasLie[tp.Name(l.Attach)] = true
	}
	if !hasLie["A"] || !hasLie["B"] {
		t.Fatalf("reduction dropped required lies: %v", red.Lies)
	}
}

func TestEvaluateRejectsBadLies(t *testing.T) {
	tp := fig1()
	blue := topo.Fig1BluePrefix
	cases := []Lie{
		{Prefix: blue, Attach: tp.MustNode("B"), Via: tp.MustNode("R4"), Cost: 2}, // not a neighbor
		{Prefix: blue, Attach: tp.MustNode("B"), Via: tp.MustNode("R3"), Cost: -1},
	}
	for i, lie := range cases {
		if _, err := Evaluate(tp, topo.Fig1BluePrefixName, []Lie{lie}); err == nil {
			t.Errorf("case %d: bad lie accepted", i)
		}
	}
	if _, err := Evaluate(tp, "nope", nil); err == nil {
		t.Errorf("unknown prefix accepted")
	}
}

func TestCheckDeliveryDetectsLoop(t *testing.T) {
	tp := fig1()
	a, b := tp.MustNode("A"), tp.MustNode("B")
	views := map[topo.NodeID]RouteView{
		a: {Dist: 1, NextHops: NextHopWeights{b: 1}},
		b: {Dist: 1, NextHops: NextHopWeights{a: 1}},
	}
	if err := CheckDelivery(tp, views); err == nil {
		t.Fatalf("loop not detected")
	}
}

func TestCheckDeliveryDetectsBlackhole(t *testing.T) {
	tp := fig1()
	a, b := tp.MustNode("A"), tp.MustNode("B")
	views := map[topo.NodeID]RouteView{
		a: {Dist: 1, NextHops: NextHopWeights{b: 1}},
		// b missing entirely: traffic forwarded into the void.
	}
	if err := CheckDelivery(tp, views); err == nil {
		t.Fatalf("blackhole not detected")
	}
	views[b] = RouteView{Dist: spf.Infinity, NextHops: NextHopWeights{}}
	if err := CheckDelivery(tp, views); err == nil {
		t.Fatalf("next hop without route not detected")
	}
}

func TestNextHopWeightsEqual(t *testing.T) {
	w1 := NextHopWeights{1: 1, 2: 2}
	w2 := NextHopWeights{1: 2, 2: 4}
	w3 := NextHopWeights{1: 2, 2: 2}
	if !w1.Equal(w2) {
		t.Fatalf("scaled weights should be equal")
	}
	if w1.Equal(w3) {
		t.Fatalf("different ratios reported equal")
	}
	if w1.Equal(NextHopWeights{1: 1}) {
		t.Fatalf("different sizes reported equal")
	}
}

func TestApproxWeightsExact(t *testing.T) {
	cases := []struct {
		in   []float64
		want []int
	}{
		{[]float64{2.0 / 3, 1.0 / 3}, []int{2, 1}},
		{[]float64{0.5, 0.5}, []int{1, 1}},
		{[]float64{1}, []int{1}},
		{[]float64{0.25, 0.75}, []int{1, 3}},
		{[]float64{0.4, 0.4, 0.2}, []int{2, 2, 1}},
	}
	for _, c := range cases {
		got, err := ApproxWeights(c.in, 16)
		if err != nil {
			t.Fatalf("%v: %v", c.in, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%v -> %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%v -> %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestApproxWeightsPositiveGetsWeight(t *testing.T) {
	w, err := ApproxWeights([]float64{0.98, 0.01, 0.01}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range w {
		if v < 1 {
			t.Fatalf("positive fraction %d got weight %d: %v", i, v, w)
		}
	}
}

func TestApproxWeightsErrors(t *testing.T) {
	if _, err := ApproxWeights(nil, 4); err == nil {
		t.Fatalf("empty accepted")
	}
	if _, err := ApproxWeights([]float64{1}, 0); err == nil {
		t.Fatalf("maxDenom 0 accepted")
	}
	if _, err := ApproxWeights([]float64{-1, 2}, 4); err == nil {
		t.Fatalf("negative accepted")
	}
	if _, err := ApproxWeights([]float64{0, 0}, 4); err == nil {
		t.Fatalf("all-zero accepted")
	}
	if _, err := ApproxWeights([]float64{0.2, 0.2, 0.2, 0.2, 0.2}, 3); err == nil {
		t.Fatalf("infeasible denominator accepted")
	}
}

// Property: approximated weights sum to at most maxDenom, and the realised
// split error is no worse than 1/denominator (up to rounding slack).
func TestApproxWeightsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		fr := make([]float64, n)
		for i := range fr {
			fr[i] = rng.Float64()
		}
		fr[rng.Intn(n)] += 0.1 // ensure nonzero sum
		const maxDenom = 16
		w, err := ApproxWeights(fr, maxDenom)
		if err != nil {
			return false
		}
		sum := 0
		for _, v := range w {
			sum += v
		}
		if sum < 1 || sum > maxDenom {
			return false
		}
		// Each positive fraction is pinned to weight >= 1, so in the
		// worst case (many near-zero fractions) one component can be
		// off by up to (n-1)/sum, plus 1/sum of rounding.
		return WeightsError(w, fr) <= float64(n)/float64(sum)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsToDAG(t *testing.T) {
	tp := fig1()
	a, b, r1 := tp.MustNode("A"), tp.MustNode("B"), tp.MustNode("R1")
	splits := map[topo.NodeID]map[topo.NodeID]float64{
		a: {b: 1.0 / 3, r1: 2.0 / 3},
	}
	dag, err := SplitsToDAG(splits, 16)
	if err != nil {
		t.Fatal(err)
	}
	if dag[a][b] != 1 || dag[a][r1] != 2 {
		t.Fatalf("dag = %v", dag)
	}

	// Requirement quantises the same way and drops the prefix's
	// attachment router C, which delivers locally.
	c, r2 := tp.MustNode("C"), tp.MustNode("R2")
	splits[c] = map[topo.NodeID]float64{r2: 1}
	req, err := Requirement(tp, topo.Fig1BluePrefixName, splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, DAG{a: {b: 1, r1: 2}}) {
		t.Fatalf("Requirement = %v, want A's row alone", req)
	}
	if _, err := Requirement(tp, "nosuch", splits); err == nil || !strings.Contains(err.Error(), `unknown prefix "nosuch"`) {
		t.Fatalf("unknown prefix: %v", err)
	}
	// More next hops than MaxDenom fakes can weigh is the quantiser's error.
	wide := map[topo.NodeID]float64{}
	for i := range MaxDenom + 1 {
		wide[topo.NodeID(100+i)] = 1
	}
	if _, err := Requirement(tp, topo.Fig1BluePrefixName, map[topo.NodeID]map[topo.NodeID]float64{a: wide}); err == nil {
		t.Fatalf("%d-way split accepted at MaxDenom %d", len(wide), MaxDenom)
	}
}

// Property: adding a "downhill" neighbor (strictly closer to the prefix,
// not already a next hop) as an extra equal-cost path always verifies:
// no loops, no leakage to other routers.
func TestDownhillAdditionAlwaysSafe(t *testing.T) {
	f := func(seed int64) bool {
		tp := topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 4, Prefixes: 1, Seed: seed,
		})
		views, err := IGPView(tp, "d0")
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		// Find a router with a downhill neighbor not already used.
		nodes := tp.Nodes()
		for try := 0; try < 50; try++ {
			u := nodes[rng.Intn(len(nodes))].ID
			uv, ok := views[u]
			if !ok || uv.Local || len(uv.NextHops) == 0 {
				continue
			}
			var candidate topo.NodeID = topo.NoNode
			for _, lid := range tp.OutLinks(u) {
				v := tp.Link(lid).To
				vv, ok := views[v]
				if !ok || uv.NextHops[v] > 0 {
					continue
				}
				if vv.Local || (vv.Dist < uv.Dist && vv.Dist != spf.Infinity) {
					candidate = v
					break
				}
			}
			if candidate == topo.NoNode {
				continue
			}
			desired := NextHopWeights{candidate: 1 + rng.Intn(3)}
			for nh := range uv.NextHops {
				desired[nh] = 1
			}
			dag := DAG{u: desired}
			aug, err := AugmentAddPaths(tp, "d0", dag)
			if err != nil {
				t.Logf("seed %d: augment failed: %v", seed, err)
				return false
			}
			if err := Verify(tp, "d0", aug.Lies, dag); err != nil {
				t.Logf("seed %d: verify failed: %v", seed, err)
				return false
			}
			return true
		}
		return true // no candidate found; vacuous
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsError(t *testing.T) {
	if e := WeightsError([]int{2, 1}, []float64{2.0 / 3, 1.0 / 3}); e > 1e-12 {
		t.Fatalf("exact weights have error %v", e)
	}
	if e := WeightsError([]int{1, 1}, []float64{0.75, 0.25}); math.Abs(e-0.25) > 1e-12 {
		t.Fatalf("error = %v, want 0.25", e)
	}
}

func BenchmarkFig1cAugmentation(b *testing.B) {
	tp := fig1()
	dag := Fig1DAG(tp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAugmentSimpleVsMerged(b *testing.B) {
	tp := fig1()
	dag := Fig1DAG(tp)
	b.Run("pin-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AugmentPinAll(tp, topo.Fig1BluePrefixName, dag); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pin-all+reduce", func(b *testing.B) {
		aug, err := AugmentPinAll(tp, topo.Fig1BluePrefixName, dag)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ReduceLies(tp, topo.Fig1BluePrefixName, aug, dag); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRatioApproximation(b *testing.B) {
	fr := []float64{0.37, 0.21, 0.42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ApproxWeights(fr, 16); err != nil {
			b.Fatal(err)
		}
	}
}
