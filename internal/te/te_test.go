package te

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// fig1Stress returns the Fig1 topology with demands that saturate the
// pre-Fibbing bottleneck: 8 Mbit/s from each source over 16 Mbit/s links,
// making B-R2 run at utilisation 1.0 before the controller reacts.
func fig1Stress() (*topo.Topology, []topo.Demand) {
	t := topo.Fig1(topo.Fig1Opts{})
	return t, topo.Fig1Demands(t, 8e6)
}

// TestFig1bLinkLoads pins the paper's Figure 1b: with demands of 100
// relative units at A and B, plain IGP routing loads A-B with 100 and
// B-R2, R2-C with 200.
func TestFig1bLinkLoads(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	demands := topo.Fig1Demands(tp, 100)
	loads, err := IGPLoads(tp, demands)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"A->B": 100, "B->R2": 200, "R2->C": 200,
	}
	got := map[string]float64{}
	for id, v := range loads {
		if v < 1e-9 {
			continue
		}
		l := tp.Link(id)
		got[tp.Name(l.From)+"->"+tp.Name(l.To)] = v
	}
	if len(got) != len(want) {
		t.Fatalf("loads = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("load %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestFig1dLinkLoads pins Figure 1d: with the paper's three lies, the
// loads become 33.3 on A-B and 66.7 on every other used link.
func TestFig1dLinkLoads(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	demands := topo.Fig1Demands(tp, 100)
	dag := fibbing.Fig1DAG(tp)
	aug, err := fibbing.AugmentAddPaths(tp, topo.Fig1BluePrefixName, dag)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := LoadsWithLies(tp,
		map[string][]fibbing.Lie{topo.Fig1BluePrefixName: aug.Lies}, demands)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"A->B":   100.0 / 3,
		"A->R1":  200.0 / 3,
		"R1->R4": 200.0 / 3,
		"R4->C":  200.0 / 3,
		"B->R2":  200.0 / 3,
		"R2->C":  200.0 / 3,
		"B->R3":  200.0 / 3,
		"R3->C":  200.0 / 3,
	}
	got := map[string]float64{}
	for id, v := range loads {
		if v < 1e-9 {
			continue
		}
		l := tp.Link(id)
		got[tp.Name(l.From)+"->"+tp.Name(l.To)] = v
	}
	if len(got) != len(want) {
		t.Fatalf("loads = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-6 {
			t.Fatalf("load %s = %v, want %v", k, got[k], v)
		}
	}
	// The paper's headline: max load drops from 200 to 66.7 while the
	// same total traffic is delivered.
	max := 0.0
	for _, v := range got {
		if v > max {
			max = v
		}
	}
	if math.Abs(max-200.0/3) > 1e-6 {
		t.Fatalf("max load = %v, want 66.7", max)
	}
}

// TestMinMaxFig1Optimal verifies the LP recovers the paper's optimal
// solution: max link load 66.7 relative units, with A splitting 1/3 : 2/3
// and B splitting evenly — exactly Figure 1d.
func TestMinMaxFig1Optimal(t *testing.T) {
	tp, demands := fig1Stress()
	res, err := SolveMinMax(tp, demands)
	if err != nil {
		t.Fatal(err)
	}
	// θ* = (2/3 · 16 Mbit/s... ) demands 8+8 = 16 Mbit/s over three
	// C-facing links of 16 Mbit/s: optimal max load 16/3 Mbit/s each =
	// utilisation 1/3.
	if math.Abs(res.MaxUtilisation-1.0/3) > 1e-6 {
		t.Fatalf("θ* = %v, want 1/3", res.MaxUtilisation)
	}
	splits := res.Splits[topo.Fig1BluePrefixName]
	a, b := tp.MustNode("A"), tp.MustNode("B")
	r1, r2, r3 := tp.MustNode("R1"), tp.MustNode("R2"), tp.MustNode("R3")
	if sa := splits[a]; math.Abs(sa[r1]-2.0/3) > 1e-6 || math.Abs(sa[tp.MustNode("B")]-1.0/3) > 1e-6 {
		t.Fatalf("A splits = %v, want 1/3 B, 2/3 R1", sa)
	}
	if sb := splits[b]; math.Abs(sb[r2]-0.5) > 1e-6 || math.Abs(sb[r3]-0.5) > 1e-6 {
		t.Fatalf("B splits = %v, want even", sb)
	}
}

// TestFibbingRealisesOptimum is the §2 claim: the full pipeline
// LP -> quantised splits -> lies achieves the LP optimum on Figure 1
// (the ratios 1/3:2/3 and 1/2:1/2 quantise exactly).
func TestFibbingRealisesOptimum(t *testing.T) {
	tp, demands := fig1Stress()
	fb, err := RealizeMinMax(tp, demands, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fb.Realised-fb.Optimal) > 1e-6 {
		t.Fatalf("realised %v != optimal %v", fb.Realised, fb.Optimal)
	}
	if fb.Lies == 0 {
		t.Fatalf("no lies computed")
	}
}

// TestWeightOptWorseThanFibbing is the paper's argument against weight
// optimisation: even the best even-split ECMP weights cannot reach the
// fractional optimum (B must carry 4/3 of one source's volume evenly: best
// even split leaves max utilisation 3/8 > 1/3), and they require multiple
// per-device weight changes.
func TestWeightOptWorseThanFibbing(t *testing.T) {
	tp, demands := fig1Stress()
	igpUtil, err := ECMPOnlyUtilisation(tp, demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(igpUtil-1.0) > 1e-9 {
		t.Fatalf("pre-reaction utilisation = %v, want 1.0", igpUtil)
	}
	w, err := OptimizeWeights(tp, demands, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxUtilisation >= igpUtil {
		t.Fatalf("weight optimisation did not improve: %v >= %v", w.MaxUtilisation, igpUtil)
	}
	if w.MaxUtilisation < 1.0/3-1e-9 {
		t.Fatalf("weight optimisation beat the LP optimum: %v", w.MaxUtilisation)
	}
	if w.WeightChanges == 0 {
		t.Fatalf("improvement without weight changes?")
	}
	if w.Evaluations == 0 {
		t.Fatalf("no evaluations recorded")
	}
}

func TestOptimizeWeightsValidation(t *testing.T) {
	tp, demands := fig1Stress()
	if _, err := OptimizeWeights(tp, demands, 1, 1); err == nil {
		t.Fatalf("maxWeight 1 accepted")
	}
	// Input topology must not be mutated.
	before := tp.String()
	if _, err := OptimizeWeights(tp, demands, 10, 1); err != nil {
		t.Fatal(err)
	}
	if tp.String() != before {
		t.Fatalf("OptimizeWeights mutated its input")
	}
}

func TestPlaceTunnelsSpreads(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	demands := []topo.Demand{
		{Ingress: tp.MustNode("B"), PrefixName: topo.Fig1BluePrefixName, Volume: 10.1e6},
		{Ingress: tp.MustNode("A"), PrefixName: topo.Fig1BluePrefixName, Volume: 10e6},
	}
	res, err := PlaceTunnels(tp, demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("unplaced demands: %v", res.Unplaced)
	}
	if len(res.Tunnels) < 2 {
		t.Fatalf("tunnels = %d", len(res.Tunnels))
	}
	// B's larger demand takes B-R2-C; A's cannot fit there and must
	// detour via R1-R4.
	if res.MaxUtilisation > 1.0 {
		t.Fatalf("RSVP overloaded a link: %v", res.MaxUtilisation)
	}
	if res.SignalingMessages == 0 || res.StateEntries == 0 {
		t.Fatalf("overhead counters empty: %+v", res)
	}
	if res.EncapBytesPerPacket != 4 {
		t.Fatalf("MPLS encap = %d", res.EncapBytesPerPacket)
	}
}

func TestPlaceTunnelsSplitsWhenNoSinglePathFits(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	// 20 Mbit/s cannot fit any single 16 Mbit/s path: must split.
	demands := []topo.Demand{
		{Ingress: tp.MustNode("A"), PrefixName: topo.Fig1BluePrefixName, Volume: 20e6},
	}
	res, err := PlaceTunnels(tp, demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("unplaced: %v", res.Unplaced)
	}
	if len(res.Tunnels) < 2 {
		t.Fatalf("demand was not split: %d tunnels", len(res.Tunnels))
	}
	var total float64
	for _, tun := range res.Tunnels {
		total += tun.Bandwidth
	}
	if math.Abs(total-20e6) > 1 {
		t.Fatalf("split tunnels carry %v, want 20e6", total)
	}
}

func TestPlaceTunnelsLocalDemandFree(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	demands := []topo.Demand{
		{Ingress: tp.MustNode("C"), PrefixName: topo.Fig1BluePrefixName, Volume: 5e6},
	}
	res, err := PlaceTunnels(tp, demands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tunnels) != 0 {
		t.Fatalf("local demand created tunnels: %+v", res.Tunnels)
	}
}

func TestCompareOverheads(t *testing.T) {
	tp, demands := fig1Stress()
	cmp, err := CompareOverheads(tp, demands, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FibbingLies == 0 || cmp.FibbingLSABytes == 0 {
		t.Fatalf("fibbing overhead empty: %+v", cmp)
	}
	if cmp.Tunnels == 0 || cmp.SignalingMessages == 0 {
		t.Fatalf("rsvp overhead empty: %+v", cmp)
	}
	if cmp.FibbingEncapBytes != 0 {
		t.Fatalf("fibbing must not encapsulate")
	}
	if cmp.TunnelEncapBytes == 0 {
		t.Fatalf("rsvp-te must encapsulate")
	}
	if math.Abs(cmp.FibbingRealised-cmp.FibbingOptimal) > 1e-6 {
		t.Fatalf("fibbing missed the optimum on Fig1: %+v", cmp)
	}
}

func TestMinMaxRejectsUnknownPrefix(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	_, err := SolveMinMax(tp, []topo.Demand{{Ingress: tp.MustNode("A"), PrefixName: "nope", Volume: 1}})
	if err == nil {
		t.Fatalf("unknown prefix accepted")
	}
}

// TestBuildMinMaxMatchesReference holds the node-link builder, whose
// conservation rows walk each router's own links, to the one that scanned
// every link for every router and commodity (both in reference_test.go):
// over the oracle zoo and random demand sets — demands at a sink and an
// unknown prefix included — both build the same row types, the same
// objective, every coefficient and every right-hand side to the bit, the
// same variable layout, or the same error.
func TestBuildMinMaxMatchesReference(t *testing.T) {
	built := 0
	for _, z := range oracleZoo {
		tp := z.build(1e9)
		for _, nd := range []int{1, 2, 5, 12} {
			for seed := int64(1); seed <= 3; seed++ {
				demands := topo.RandomDemands(tp, nd, 1e8, 6e8, seed)
				switch seed {
				case 2:
					p := tp.Prefixes()[0]
					demands = append(demands, topo.Demand{Ingress: p.Attachments[0].Node, PrefixName: p.Name, Volume: 1e8})
				case 3:
					demands = append(demands, topo.Demand{Ingress: 0, PrefixName: "nope", Volume: 1e8})
				}
				what := fmt.Sprintf("%s, %d demands, seed %d", z.name, nd, seed)
				got, gotErr := buildMinMax(tp, demands)
				want, wantErr := refBuildMinMax(tp, demands)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if !slices.Equal(got.bld.types, want.bld.types) {
					t.Fatalf("%s: row types %q, reference %q", what, got.bld.types, want.bld.types)
				}
				gc, ga, gb := refDense(got.bld)
				wc, wa, wb := refDense(want.bld)
				same := func(x, y []float64) bool {
					return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
				}
				if !same(gc, wc) || !same(gb, wb) || !slices.EqualFunc(ga, wa, same) {
					t.Fatalf("%s: the tableaus differ", what)
				}
				if !reflect.DeepEqual(got.x, want.x) || !reflect.DeepEqual(got.order, want.order) ||
					!reflect.DeepEqual(got.links, want.links) || got.scale != want.scale {
					t.Fatalf("%s: the variable layout differs", what)
				}
				built++
			}
		}
	}
	if built < 60 {
		t.Fatalf("only %d problems built", built)
	}
}

func TestMinMaxOnRandomTopologies(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tp := topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: seed,
		})
		demands := topo.RandomDemands(tp, 6, 1e6, 3e6, seed)
		res, err := SolveMinMax(tp, demands)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Optimality sanity: the LP must never exceed the plain-IGP
		// utilisation.
		igp, err := ECMPOnlyUtilisation(tp, demands)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MaxUtilisation > igp+1e-6 {
			t.Fatalf("seed %d: LP %v worse than IGP %v", seed, res.MaxUtilisation, igp)
		}
		// Flow conservation: per prefix, flow out of each ingress is at
		// least its demand share... verified indirectly: splits are
		// valid distributions.
		for _, splits := range res.Splits {
			for u, s := range splits {
				sum := 0.0
				for _, f := range s {
					if f < -1e-9 || f > 1+1e-9 {
						t.Fatalf("seed %d: split fraction out of range at %d: %v", seed, u, s)
					}
					sum += f
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Fatalf("seed %d: splits at %d sum to %v", seed, u, sum)
				}
			}
		}
	}
}

// TestRemoveCyclesDeterministic cancels two circulations that overlap on
// the link a->b — a->b->c->a and a->b->d->a — 200 times over. Cancelling
// one starves the other of the shared link, so which goes first decides
// what survives (d's branch or c's); the search tries roots and out-links
// in links order, never map order, so it is a->b->c->a every time.
func TestRemoveCyclesDeterministic(t *testing.T) {
	tp := topo.New()
	a, b, c, d := tp.AddNode("a"), tp.AddNode("b"), tp.AddNode("c"), tp.AddNode("d")
	ab := tp.AddDirectedLink(a, b, 1, topo.LinkOpts{})
	bc := tp.AddDirectedLink(b, c, 1, topo.LinkOpts{})
	ca := tp.AddDirectedLink(c, a, 1, topo.LinkOpts{})
	bd := tp.AddDirectedLink(b, d, 1, topo.LinkOpts{})
	da := tp.AddDirectedLink(d, a, 1, topo.LinkOpts{})
	links := tp.Links()

	for run := 0; run < 200; run++ {
		flow := map[topo.LinkID]float64{ab: 5, bc: 3, ca: 3, bd: 4, da: 4}
		removeCycles(tp, links, flow, 1e-9)
		// a->b->c->a takes 3 of a->b's 5, a->b->d->a the 2 that are left.
		want := map[topo.LinkID]float64{bd: 2, da: 2}
		if !maps.Equal(flow, want) {
			t.Fatalf("run %d: flow %v, want %v", run, flow, want)
		}
		splits := extractSplits(tp, links, flow, 1e-9)
		if len(splits) != 2 || splits[b][d] != 1 || splits[d][a] != 1 {
			t.Fatalf("run %d: splits %v, want b->d and d->a", run, splits)
		}
	}
}

func TestFortzThorupCostShape(t *testing.T) {
	// Monotone increasing and convex on sample points.
	xs := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.05, 1.2}
	prev := -1.0
	for _, x := range xs {
		c := FortzThorupCost(x)
		if c <= prev {
			t.Fatalf("cost not increasing at %v", x)
		}
		prev = c
	}
	if FortzThorupCost(1.2) < 100 {
		t.Fatalf("overload not heavily penalised")
	}
}

func BenchmarkTESolvers(b *testing.B) {
	tp, demands := fig1Stress()
	b.Run("lp-minmax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveMinMax(tp, demands); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weight-local-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := OptimizeWeights(tp, demands, 10, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rsvp-cspf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PlaceTunnels(tp, demands); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fibbing-realize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RealizeMinMax(tp, demands, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMinMaxRandom(b *testing.B) {
	tp := topo.RandomConnected(topo.RandomOpts{
		Nodes: 20, Degree: 3, MaxWeight: 5, Prefixes: 3, Capacity: 10e6, Seed: 7,
	})
	demands := topo.RandomDemands(tp, 10, 1e6, 3e6, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMinMax(tp, demands); err != nil {
			b.Fatal(err)
		}
	}
}
