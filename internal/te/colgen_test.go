package te

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// sameOptimum fails unless column generation and the node-link LP agree:
// the same error, or θ* within SolverRelTol.
func sameOptimum(t *testing.T, what string, tp *topo.Topology, demands []topo.Demand) *MinMaxResult {
	t.Helper()
	got, gotErr := SolveMinMax(tp, demands)
	want, wantErr := nodeLinkOptimum(tp, demands)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, node-link %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if math.Abs(got.MaxUtilisation-want) > SolverRelTol*math.Max(1, want) {
		t.Fatalf("%s: θ* = %v, node-link %v", what, got.MaxUtilisation, want)
	}
	return got
}

// surgeDemands is the crowd the planner benchmarks and the scale cells
// hand the LP: 1.7× the IGP bottleneck from the router farthest from the
// prefix's first attachment, plus 0.37× of it from the next farthest.
func surgeDemands(tp *topo.Topology, prefix string) []topo.Demand {
	pr, _ := tp.PrefixByName(prefix)
	p, err := newPathLP(tp, nil)
	if err != nil {
		panic(err)
	}
	dest := destination{attach: pr.Attachments[:1], sink: make([]bool, tp.NumNodes())}
	dest.sink[pr.Attachments[0].Node] = true
	hops := make([]float64, len(p.links))
	for i := range hops {
		hops[i] = 1
	}
	p.sp.init(tp.NumNodes())
	p.sp.run(p, &dest, hops, false)
	var far []topo.NodeID
	for _, n := range tp.Nodes() {
		if !n.Host && !math.IsInf(p.sp.dist[n.ID], 1) && !dest.sink[n.ID] {
			far = append(far, n.ID)
		}
	}
	slices.SortStableFunc(far, func(a, b topo.NodeID) int { return cmp.Compare(p.sp.dist[b], p.sp.dist[a]) })
	bottleneck := math.Inf(1)
	for _, l := range p.sp.path(p, &dest, far[0]) {
		if c := p.links[l].Capacity; c > 0 && c < bottleneck {
			bottleneck = c
		}
	}
	return []topo.Demand{
		{Ingress: far[0], PrefixName: prefix, Volume: 1.7 * bottleneck},
		{Ingress: far[1], PrefixName: prefix, Volume: 0.37 * bottleneck},
	}
}

// TestMinMaxMatchesNodeLinkOracle holds column generation to the node-link
// LP it replaced (reference_test.go): the same θ* within SolverRelTol, or
// the same error, over the oracle zoo, fat-tree k=8, a random graph of 60
// routers and a Waxman graph of 40 (a dense one: the node-link LP takes
// 5 s at 60), with random demand sets, a surge on every prefix, demands
// at an attachment and on an unknown prefix, and the demand sets the
// experiments solve.
func TestMinMaxMatchesNodeLinkOracle(t *testing.T) {
	t.Parallel()
	zoo := append(slices.Clone(oracleZoo),
		zooTopo{"fattree8", true, func(c float64) *topo.Topology {
			return topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: c, MaxWeight: 3, Seed: 2})
		}},
		zooTopo{"random60", true, func(c float64) *topo.Topology {
			return topo.RandomConnected(topo.RandomOpts{Nodes: 60, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: c, Seed: 5})
		}},
		zooTopo{"waxman40", true, func(c float64) *topo.Topology {
			return topo.Waxman(topo.WaxmanOpts{Nodes: 40, Capacity: c, MaxWeight: 5, Seed: 7})
		}},
	)
	solved := 0
	for _, z := range zoo {
		if z.large && testing.Short() {
			continue // the node-link oracle needs seconds on these
		}
		tp := z.build(1e9)
		for _, pr := range tp.Prefixes() {
			sameOptimum(t, fmt.Sprintf("%s surge on %s", z.name, pr.Name), tp, surgeDemands(tp, pr.Name))
			solved++
		}
		if z.large {
			continue
		}
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
				sameOptimum(t, fmt.Sprintf("%s, %d demands, seed %d", z.name, nd, seed), tp, demands)
				solved++
			}
		}
	}
	fig1 := topo.Fig1(topo.Fig1Opts{})
	sameOptimum(t, "experiments fig1", fig1, topo.Fig1Demands(fig1, 8e6))
	for _, size := range []struct{ nodes, demands int }{{12, 5}, {15, 6}} {
		for seed := int64(1); seed <= 3; seed++ {
			tp := topo.RandomConnected(topo.RandomOpts{
				Nodes: size.nodes, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: seed,
			})
			sameOptimum(t, fmt.Sprintf("experiments rand%d-seed%d", size.nodes, seed), tp,
				topo.RandomDemands(tp, size.demands, 1e6, 4e6, seed))
			solved++
		}
	}
	if solved < 80 {
		t.Fatalf("only %d problems compared", solved)
	}
}

// TestMinMaxDualCertificate checks the optimality condition column
// generation stops on, by brute force: on graphs of at most 7 routers,
// every simple path from every commodity's ingress to an attachment has a
// non-negative reduced cost under the returned duals, the duals are
// feasible for θ (Σ c_e·y_e ≤ 1), and their objective Σ d_k·π_k equals θ*.
// Together that is LP duality's certificate that no path the master
// never generated could lower θ*.
func TestMinMaxDualCertificate(t *testing.T) {
	t.Parallel()
	type problem struct {
		name    string
		tp      *topo.Topology
		demands []topo.Demand
	}
	var problems []problem
	graphs := []struct {
		name string
		tp   *topo.Topology
	}{
		{"fig1", topo.Fig1(topo.Fig1Opts{})},
		{"ring7", topo.Ring(topo.RingOpts{N: 7, Capacity: 10e6})},
	}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, struct {
			name string
			tp   *topo.Topology
		}{fmt.Sprintf("random7-%d", seed), topo.RandomConnected(topo.RandomOpts{
			Nodes: 7, Degree: 3, MaxWeight: 5, Prefixes: 3, Capacity: 10e6, Seed: seed,
		})})
	}
	for _, g := range graphs {
		for _, nd := range []int{1, 3, 6} {
			for seed := int64(1); seed <= 5; seed++ {
				problems = append(problems, problem{fmt.Sprintf("%s, %d demands, seed %d", g.name, nd, seed),
					g.tp, topo.RandomDemands(g.tp, nd, 2e6, 12e6, seed)})
			}
		}
	}
	for seed := int64(1); len(problems) < 200; seed++ {
		if tp, demands := fuzzProblem(randomBytes(seed, 64)); tp.NumNodes() <= 7 {
			problems = append(problems, problem{fmt.Sprintf("fuzz seed %d", seed), tp, demands})
		}
	}
	checked, certified := 0, 0
	for _, pb := range problems {
		p, err := newPathLP(pb.tp, pb.demands)
		if err != nil {
			continue // unreachable: no optimum to certify
		}
		if err := p.solve(); err != nil {
			t.Fatalf("%s: %v", pb.name, err)
		}
		checked += checkCertificate(t, pb.name, p)
		certified++
	}
	if checked < 4000 || certified < 150 {
		t.Fatalf("only %d paths priced over %d problems", checked, certified)
	}
}

// checkCertificate prices every simple path of every commodity of a solved
// problem and returns how many it priced.
func checkCertificate(t *testing.T, what string, p *pathLP) int {
	t.Helper()
	theta := p.result().MaxUtilisation
	dual, capSum := 0.0, 0.0
	for k, c := range p.comms {
		dual += c.volume * p.pi[k]
	}
	for l, y := range p.price {
		if y < 0 {
			t.Fatalf("%s: link price %v < 0", what, y)
		}
		capSum += p.links[l].Capacity / p.scale * y
	}
	if math.Abs(dual-theta) > SolverRelTol*math.Max(1, theta) {
		t.Fatalf("%s: dual objective %v, θ* %v", what, dual, theta)
	}
	if capSum > 1+SolverRelTol {
		t.Fatalf("%s: Σ c_e·y_e = %v > 1", what, capSum)
	}
	out := make([][]int, p.topo.NumNodes())
	for i, l := range p.links {
		out[l.From] = append(out[l.From], i)
	}
	priced := 0
	for k, c := range p.comms {
		sink := p.dests[c.dest].sink
		onPath := make([]bool, p.topo.NumNodes())
		var walk func(u topo.NodeID, length float64)
		walk = func(u topo.NodeID, length float64) {
			if sink[u] {
				priced++
				if pi := p.pi[k]; length-pi < -SolverRelTol*math.Max(1, math.Abs(pi)) {
					t.Fatalf("%s: a path of commodity %d has reduced cost %v", what, k, length-pi)
				}
				return
			}
			onPath[u] = true
			for _, i := range out[u] {
				if v := p.links[i].To; !onPath[v] {
					walk(v, length+p.price[i])
				}
			}
			onPath[u] = false
		}
		walk(c.ingress, 0)
	}
	return priced
}

// TestMinMaxIgnoresDemandOrder solves every problem twice, the second time
// with its demands shuffled and split into duplicate entries, and requires
// the same bits in θ*, every flow and every split.
func TestMinMaxIgnoresDemandOrder(t *testing.T) {
	t.Parallel()
	for _, z := range oracleZoo {
		if z.large {
			continue
		}
		tp := z.build(1e9)
		for _, nd := range []int{2, 5, 12} {
			for seed := int64(1); seed <= 3; seed++ {
				what := fmt.Sprintf("%s, %d demands, seed %d", z.name, nd, seed)
				demands := topo.RandomDemands(tp, nd, 1e8, 6e8, seed)
				var split []topo.Demand
				for _, d := range demands {
					d.Volume /= 3
					split = append(split, d, d, d)
				}
				rand.New(rand.NewSource(seed)).Shuffle(len(split), func(i, j int) { split[i], split[j] = split[j], split[i] })
				a, errA := SolveMinMax(tp, split)
				slices.Reverse(split)
				b, errB := SolveMinMax(tp, split)
				if errA != nil || errB != nil {
					t.Fatalf("%s: %v, %v", what, errA, errB)
				}
				if math.Float64bits(a.MaxUtilisation) != math.Float64bits(b.MaxUtilisation) {
					t.Fatalf("%s: θ* %v, then %v", what, a.MaxUtilisation, b.MaxUtilisation)
				}
				for name, flow := range a.Flow {
					if len(flow) != len(b.Flow[name]) {
						t.Fatalf("%s: %s flows on %d links, then %d", what, name, len(flow), len(b.Flow[name]))
					}
					for id, v := range flow {
						if math.Float64bits(v) != math.Float64bits(b.Flow[name][id]) {
							t.Fatalf("%s: %s flow on link %d %v, then %v", what, name, id, v, b.Flow[name][id])
						}
					}
				}
				for name, routers := range a.Splits {
					for u, nh := range routers {
						for v, f := range nh {
							if g, ok := b.Splits[name][u][v]; !ok || math.Float64bits(f) != math.Float64bits(g) {
								t.Fatalf("%s: %s split %d->%d %v, then %v", what, name, u, v, f, g)
							}
						}
						if len(nh) != len(b.Splits[name][u]) {
							t.Fatalf("%s: %s next hops at %d differ", what, name, u)
						}
					}
					if len(routers) != len(b.Splits[name]) {
						t.Fatalf("%s: %s split routers differ", what, name)
					}
				}
			}
		}
	}
}

// randomBytes is a deterministic fuzz input.
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// fuzzProblem decodes a min-max problem from bytes: 2-8 routers; per
// router pair no link, a link without capacity, or a link of 1-8 Mbit/s
// with weight 1-4; 1-3 prefixes, each on one or two routers; up to six
// demands; and, last, one link that failed (removed with its reverse).
func fuzzProblem(data []byte) (*topo.Topology, []topo.Demand) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	tp := topo.New()
	n := 2 + next()%7
	for i := 0; i < n; i++ {
		tp.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch b := next(); b % 4 {
			case 0:
			case 1:
				tp.AddLink(topo.NodeID(i), topo.NodeID(j), int64(1+b/4%4), topo.LinkOpts{})
			default:
				tp.AddLink(topo.NodeID(i), topo.NodeID(j), int64(1+b/4%4), topo.LinkOpts{Capacity: float64(1+b/16) * 1e6})
			}
		}
	}
	prefixes := 1 + next()%3
	for i := 0; i < prefixes; i++ {
		at := []topo.Attachment{{Node: topo.NodeID(next() % n)}}
		if b := next(); b%2 == 1 && topo.NodeID(b/2%n) != at[0].Node {
			at = append(at, topo.Attachment{Node: topo.NodeID(b / 2 % n), Cost: int64(b / 32)})
		}
		tp.AddPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), fmt.Sprintf("p%d", i), at...)
	}
	var demands []topo.Demand
	for i := next() % 7; i > 0; i-- {
		demands = append(demands, topo.Demand{
			Ingress:    topo.NodeID(next() % n),
			PrefixName: fmt.Sprintf("p%d", next()%prefixes),
			Volume:     float64(1+next()%16) * 5e5,
		})
	}
	if tp.NumLinks() > 0 {
		if b := next(); b%2 == 1 {
			tp = tp.CloneWithoutLinks(topo.LinkID(b / 2 % tp.NumLinks()))
		}
	}
	return tp, demands
}

// FuzzMinMax holds SolveMinMax to the node-link oracle on small random
// problems (fuzzProblem): the same θ* within SolverRelTol or the same
// error, and a feasible answer — every prefix's flow conserved at every
// router that is not one of its attachments, and no link above its
// capacity times θ*.
func FuzzMinMax(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomBytes(seed, 64))
	}
	f.Add([]byte{5, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 1, 0, 0, 3, 1, 1, 9, 2, 1, 3, 4, 0, 5}) // a ring-ish graph, one prefix
	f.Add([]byte{2, 0, 0, 0, 1, 1, 3, 0, 0})                                                             // two routers, no link: infeasible
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, demands := fuzzProblem(data)
		res := sameOptimum(t, "fuzz", tp, demands)
		if res == nil {
			return
		}
		total := 0.0
		for _, d := range demands {
			total += d.Volume
		}
		tol := 1e-6 * math.Max(1, total)
		load := make(map[topo.LinkID]float64)
		for name, flow := range res.Flow {
			pr, _ := tp.PrefixByName(name)
			sink := make(map[topo.NodeID]bool)
			for _, a := range pr.Attachments {
				sink[a.Node] = true
			}
			net := make([]float64, tp.NumNodes())
			for id, v := range flow {
				l := tp.Link(id)
				net[l.From] += v
				net[l.To] -= v
				load[id] += v
			}
			for _, d := range demands {
				if d.PrefixName == name && !sink[d.Ingress] {
					net[d.Ingress] -= d.Volume
				}
			}
			for u, v := range net {
				if !sink[topo.NodeID(u)] && math.Abs(v) > tol {
					t.Fatalf("%s: flow out of r%d exceeds its demand by %v", name, u, v)
				}
			}
		}
		for id, v := range load {
			if l := tp.Link(id); l.Capacity > 0 && v > l.Capacity*res.MaxUtilisation*(1+1e-6)+tol {
				t.Fatalf("link %d carries %v, over %v × θ* %v", id, v, l.Capacity, res.MaxUtilisation)
			}
		}
	})
}
