package fibbing_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// requirementDAGs draws the kinds of requirement the planner's strategies
// hand to the compiler, on one prefix of one topology: the LP optimum's
// quantised splits (lp-optimal), cumulative unions of k loopless paths
// from a router to the attachment (multi-hop uphill detours, so they go
// through pin-all and ReduceLies), a one-hop widening at one router
// (local-ecmp, pure add-paths), and arbitrary next-hop picks
// that mostly fail to compile, for the error paths.
func requirementDAGs(t *testing.T, tp *topo.Topology, prefix string, rng *rand.Rand) []fibbing.DAG {
	t.Helper()
	p, _ := tp.PrefixByName(prefix)
	igp, err := fibbing.ReferenceIGPView(tp, prefix)
	if err != nil {
		t.Fatal(err)
	}
	var routers []topo.NodeID
	for _, n := range tp.Nodes() {
		if v := igp[n.ID]; !n.Host && !v.Local && len(v.NextHops) > 0 {
			routers = append(routers, n.ID)
		}
	}
	var dags []fibbing.DAG

	demands := []topo.Demand{
		{Ingress: routers[rng.Intn(len(routers))], PrefixName: prefix, Volume: 14e6},
		{Ingress: routers[rng.Intn(len(routers))], PrefixName: prefix, Volume: 5e6},
	}
	if opt, err := te.SolveMinMax(tp, demands); err == nil {
		for _, denom := range []int{2, 8} {
			if dag, err := fibbing.SplitsToDAG(opt.Splits[prefix], denom); err == nil {
				for _, at := range p.Attachments {
					delete(dag, at.Node)
				}
				dags = append(dags, dag)
			}
		}
	}

	g := spf.FromTopology(tp)
	for range 3 {
		src := routers[rng.Intn(len(routers))]
		union := fibbing.DAG{}
		for _, path := range spf.KShortestSpurLimit(g, src, p.Attachments[0].Node, 4, 8, spf.HostSkip(tp)) {
			for i := 0; i+1 < len(path); i++ {
				if union[path[i]] == nil {
					union[path[i]] = fibbing.NextHopWeights{}
				}
				union[path[i]][path[i+1]]++
			}
			snapshot := make(fibbing.DAG, len(union))
			for u, nhs := range union {
				cp := make(fibbing.NextHopWeights, len(nhs))
				for v, w := range nhs {
					cp[v] = w
				}
				snapshot[u] = cp
			}
			dags = append(dags, snapshot)
		}
	}

	for range 3 {
		u := routers[rng.Intn(len(routers))]
		want := fibbing.NextHopWeights{}
		for nh := range igp[u].NextHops {
			want[nh] = 1
		}
		for _, lid := range tp.OutLinks(u) {
			v := tp.Link(lid).To
			if vv, ok := igp[v]; ok && (vv.Local || vv.Dist < igp[u].Dist) {
				want[v] = 1 + rng.Intn(2)
			}
		}
		dags = append(dags, fibbing.DAG{u: want})
	}

	for range 4 {
		dag := fibbing.DAG{}
		for range 1 + rng.Intn(3) {
			u := routers[rng.Intn(len(routers))]
			out := tp.OutLinks(u)
			dag[u] = fibbing.NextHopWeights{tp.Link(out[rng.Intn(len(out))]).To: 1 + rng.Intn(3)}
		}
		dags = append(dags, dag)
	}
	return dags
}

// sameError compares two compile errors, text for text: CheckDelivery
// walks routers and next hops in NodeID order, so a loop report names the
// same router on either path.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestCompileDAGMatchesReferencePath: on every matrix topology, Compile
// over one shared evaluator (as the planner's cache holds it) returns the
// lie lists, pinned flag and errors the per-router-Dijkstra pipeline
// returns, lie for lie and in order — the plans the benchmark's digests
// and the fiblab reports are made of.
func TestCompileDAGMatchesReferencePath(t *testing.T) {
	compiled, pinnedSeen, failed := 0, 0, 0
	for ti, ts := range scenarios.MatrixTopologies() {
		tp, prefix, err := ts.Build()
		if err != nil {
			t.Fatal(err)
		}
		ev := fibbing.NewEvaluator(tp) // one evaluator across all DAGs
		rng := rand.New(rand.NewSource(int64(ti) + 21))
		for di, dag := range requirementDAGs(t, tp, prefix, rng) {
			want, wantPinned, wantErr := fibbing.ReferenceCompile(tp, prefix, dag)
			got, gotPinned, gotErr := ev.Compile(prefix, dag)
			if !sameError(gotErr, wantErr) {
				t.Fatalf("%s dag %d %v: error %v, reference %v", ts.Family, di, dag, gotErr, wantErr)
			}
			if gotErr != nil {
				failed++
				continue
			}
			if gotPinned != wantPinned || got.Strategy != want.Strategy || !reflect.DeepEqual(got.Lies, want.Lies) {
				t.Fatalf("%s dag %d %v:\n got  %s pinned=%v %v\n want %s pinned=%v %v",
					ts.Family, di, dag, got.Strategy, gotPinned, got.Lies, want.Strategy, wantPinned, want.Lies)
			}
			compiled++
			if gotPinned {
				pinnedSeen++
			}
		}
	}
	// The comparison must have reached all three outcomes.
	if compiled < 30 || pinnedSeen < 10 || failed < 5 {
		t.Fatalf("weak coverage: %d compiled (%d pinned), %d rejected", compiled, pinnedSeen, failed)
	}
}

// reduceInputs draws the augmentations TestReduceLiesMatchesReference
// hands to ReduceLies for one requirement: its pin-all, the same with
// some lies stacked twice (a group whose lies tie), with a lie hung off a
// host, and with one pinned router re-pointed at a random neighbour (its
// goal may loop, so every trial fails delivery); then its add-paths; then
// lie sets ReduceLies must refuse.
func reduceInputs(tp *topo.Topology, prefix string, dag fibbing.DAG, rng *rand.Rand) (inputs []*fibbing.Augmentation, hostLies int) {
	p, _ := tp.PrefixByName(prefix)
	with := func(base *fibbing.Augmentation, lies []fibbing.Lie) *fibbing.Augmentation {
		return &fibbing.Augmentation{Prefix: base.Prefix, Lies: lies, Strategy: base.Strategy}
	}
	if pin, err := fibbing.ReferenceAugmentPinAll(tp, prefix, dag); err == nil && len(pin.Lies) > 0 {
		inputs = append(inputs, pin)

		var dup []fibbing.Lie
		for _, l := range pin.Lies {
			dup = append(dup, l)
			if rng.Intn(3) == 0 {
				dup = append(dup, l)
			}
		}
		inputs = append(inputs, with(pin, dup))

		for _, n := range tp.Nodes() {
			if out := tp.OutLinks(n.ID); n.Host && len(out) > 0 {
				lies := slices.Clone(pin.Lies)
				at := rng.Intn(len(lies) + 1)
				lies = slices.Insert(lies, at, fibbing.Lie{Prefix: p.Prefix, Attach: n.ID, Via: tp.Link(out[0]).To, Cost: rng.Int63n(3)})
				inputs = append(inputs, with(pin, lies))
				hostLies++
				break
			}
		}

		lies := slices.Clone(pin.Lies)
		l := &lies[rng.Intn(len(lies))]
		out := tp.OutLinks(l.Attach)
		l.Via = tp.Link(out[rng.Intn(len(out))]).To
		inputs = append(inputs, with(pin, lies))
	}
	if add, err := fibbing.ReferenceAugmentAddPaths(tp, prefix, dag); err == nil {
		inputs = append(inputs, add)
		if len(add.Lies) > 0 {
			bad := slices.Clone(add.Lies)
			bad[len(bad)-1].Cost = -1
			inputs = append(inputs, with(add, bad))
		}
	}
	return inputs, hostLies
}

// TestReduceLiesMatchesReference holds the incremental reduction, which
// re-derives only the routers a dropped lie group can move, to the
// reference, which re-evaluates every router on every trial: over the
// matrix topologies and random graphs, and every requirement
// requirementDAGs draws, ReduceLies on one shared evaluator returns the
// reference's lies, lie for lie and in order, and its errors.
func TestReduceLiesMatchesReference(t *testing.T) {
	specs := scenarios.MatrixTopologies()
	for seed := int64(1); seed <= 3; seed++ {
		specs = append(specs,
			scenarios.TopoSpec{Family: "random", Size: 8 + 3*int(seed), Seed: 40 + seed},
			scenarios.TopoSpec{Family: "waxman", Size: 10 + 3*int(seed), Seed: 50 + seed})
	}
	var compared, shrunk, kept, failed, hostLies int
	for ti, ts := range specs {
		tp, prefix, err := ts.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(ti) + 77))
		// A stub host to hang lies off; it transits nothing, so no route moves.
		tp.AddLink(tp.AddHost("stub"), topo.NodeID(rng.Intn(tp.NumNodes())), 1, topo.LinkOpts{})
		ev := fibbing.NewEvaluator(tp)
		for di, dag := range requirementDAGs(t, tp, prefix, rng) {
			inputs, hosts := reduceInputs(tp, prefix, dag, rng)
			hostLies += hosts
			for ii, in := range inputs {
				want, wantErr := fibbing.ReferenceReduceLies(tp, prefix, in, dag)
				got, gotErr := ev.ReduceLies(prefix, in, dag)
				if !sameError(gotErr, wantErr) {
					t.Fatalf("%s/%d dag %d input %d %v: error %v, reference %v", ts.Family, ts.Seed, di, ii, in.Lies, gotErr, wantErr)
				}
				compared++
				if gotErr != nil {
					failed++
					continue
				}
				if got.Strategy != want.Strategy || !reflect.DeepEqual(got.Lies, want.Lies) {
					t.Fatalf("%s/%d dag %d input %d %v:\n got  %s %v\n want %s %v",
						ts.Family, ts.Seed, di, ii, in.Lies, got.Strategy, got.Lies, want.Strategy, want.Lies)
				}
				if len(got.Lies) < len(in.Lies) {
					shrunk++
				} else {
					kept++
				}
			}
		}
	}
	// Removals accepted and refused, errors and host lies must all occur.
	if shrunk < 400 || kept < 100 || failed < 30 || hostLies < 100 {
		t.Fatalf("weak coverage over %d inputs: %d shrunk, %d kept whole, %d rejected, %d with a host lie",
			compared, shrunk, kept, failed, hostLies)
	}
}
