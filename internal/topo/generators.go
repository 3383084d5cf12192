package topo

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
)

// This file holds the seeded topology generators of the scenario matrix:
// fat-tree (data-center), ring (metro/backbone), and Waxman (random
// geometric WAN). Together with Fig1, Abilene, Grid and RandomConnected
// they form the topology zoo the stress harness sweeps over.
//
// Every generator is deterministic for a given option set (including the
// seed) and produces a Validate-clean topology: symmetric links, weights
// >= 1, positive capacities, and at least one destination prefix so the
// flash-crowd workloads have somewhere to aim.

// weightDrawer returns a deterministic weight generator in [1, maxWeight].
// maxWeight <= 1 yields constant unit weights (the common default for
// regular topologies); larger values add seeded weight jitter so equal-cost
// structure varies across seeds.
func weightDrawer(seed, maxWeight int64) func() int64 {
	if maxWeight <= 1 {
		return func() int64 { return 1 }
	}
	rng := rand.New(rand.NewSource(seed))
	return func() int64 { return 1 + rng.Int63n(maxWeight) }
}

// FatTreeOpts parameterises FatTree.
type FatTreeOpts struct {
	// K is the fat-tree arity; must be even and >= 2. A k-ary fat-tree has
	// (k/2)^2 core switches and k pods of k/2 aggregation + k/2 edge
	// switches each: 5k^2/4 routers total (k=4 -> 20).
	K int
	// Capacity is the uniform link capacity in bit/s (default 10 Mbit/s).
	Capacity float64
	// MaxWeight > 1 draws link weights uniformly from [1, MaxWeight] using
	// Seed; otherwise all weights are 1 (the classic ECMP fat-tree).
	MaxWeight int64
	// Seed drives the weight jitter. Ignored when MaxWeight <= 1.
	Seed int64
}

// FatTreePrefixName is the destination prefix FatTree attaches under the
// first edge switch of pod 0 (the "server rack" the crowd fetches from).
const FatTreePrefixName = "rack"

// FatTree builds a k-ary fat-tree: the canonical Clos data-center fabric
// with rich path diversity (every inter-pod pair has (k/2)^2 equal-cost
// paths at unit weights). Node names: core c<i>, aggregation p<p>a<i>,
// edge p<p>e<i>.
func FatTree(o FatTreeOpts) *Topology {
	if o.K < 2 || o.K%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity %d must be even and >= 2", o.K))
	}
	if o.Capacity == 0 {
		o.Capacity = 10e6
	}
	w := weightDrawer(o.Seed, o.MaxWeight)
	opts := LinkOpts{Capacity: o.Capacity}
	half := o.K / 2

	t := New()
	core := make([]NodeID, half*half)
	for i := range core {
		core[i] = t.AddNode(fmt.Sprintf("c%d", i))
	}
	for p := 0; p < o.K; p++ {
		agg := make([]NodeID, half)
		edge := make([]NodeID, half)
		for i := 0; i < half; i++ {
			agg[i] = t.AddNode(fmt.Sprintf("p%da%d", p, i))
		}
		for i := 0; i < half; i++ {
			edge[i] = t.AddNode(fmt.Sprintf("p%de%d", p, i))
		}
		for i, a := range agg {
			// Aggregation switch i of every pod uplinks to core group i.
			for j := 0; j < half; j++ {
				t.AddLink(a, core[i*half+j], w(), opts)
			}
			for _, e := range edge {
				t.AddLink(a, e, w(), opts)
			}
		}
	}
	t.AddPrefix(netip.MustParsePrefix("10.210.0.0/16"), FatTreePrefixName,
		Attachment{Node: t.MustNode("p0e0")})
	return t
}

// RingOpts parameterises Ring.
type RingOpts struct {
	// N is the number of routers on the cycle (>= 3).
	N int
	// Capacity is the uniform link capacity in bit/s (default 10 Mbit/s).
	Capacity float64
	// MaxWeight > 1 draws link weights uniformly from [1, MaxWeight] using
	// Seed; otherwise all weights are 1.
	MaxWeight int64
	// Seed drives the weight jitter. Ignored when MaxWeight <= 1.
	Seed int64
	// Chords adds up to that many seeded random chord links across the
	// ring, turning the cycle into a chordal ring with more path
	// diversity. Best effort: when the ring is too small to place the
	// requested number of distinct chords (or the attempt budget runs
	// out), fewer are added.
	Chords int
}

// RingPrefixName is the destination prefix Ring attaches at r0.
const RingPrefixName = "head"

// Ring builds a cycle r0..r<N-1> (optionally with chords): the minimal
// two-path topology, the worst case for local load-balancing because the
// only alternative path is the long way around.
func Ring(o RingOpts) *Topology {
	if o.N < 3 {
		panic(fmt.Sprintf("topo: ring size %d < 3", o.N))
	}
	if o.Capacity == 0 {
		o.Capacity = 10e6
	}
	w := weightDrawer(o.Seed, o.MaxWeight)
	opts := LinkOpts{Capacity: o.Capacity}

	t := New()
	for i := 0; i < o.N; i++ {
		t.AddNode(fmt.Sprintf("r%d", i))
	}
	for i := 0; i < o.N; i++ {
		t.AddLink(NodeID(i), NodeID((i+1)%o.N), w(), opts)
	}
	if o.Chords > 0 {
		rng := rand.New(rand.NewSource(o.Seed + 1))
		added := 0
		for attempts := 0; added < o.Chords && attempts < 50*o.Chords; attempts++ {
			a := NodeID(rng.Intn(o.N))
			b := NodeID(rng.Intn(o.N))
			if a == b {
				continue
			}
			if _, dup := t.FindLink(a, b); dup {
				continue
			}
			t.AddLink(a, b, w(), opts)
			added++
		}
	}
	t.AddPrefix(netip.MustParsePrefix("10.220.0.0/16"), RingPrefixName,
		Attachment{Node: 0})
	return t
}

// WaxmanOpts parameterises Waxman.
type WaxmanOpts struct {
	// Nodes is the number of routers (>= 2).
	Nodes int
	// Alpha scales the overall link probability (default 0.7).
	Alpha float64
	// Capacity is the uniform link capacity in bit/s (default 10 Mbit/s).
	Capacity float64
	// MaxWeight > 1 draws link weights uniformly from [1, MaxWeight];
	// otherwise weights are 1. Uses the same seed stream as placement.
	MaxWeight int64
	// Seed drives node placement, link sampling and weight jitter.
	Seed int64
}

// waxmanFalloff is the model's distance falloff: larger favours long
// links.
const waxmanFalloff = 0.4

// WaxmanPrefixName is the destination prefix Waxman attaches at the node
// closest to the unit square's centre (a well-connected sink).
const WaxmanPrefixName = "sink"

// Waxman builds a Waxman random geometric graph: nodes are placed
// uniformly on the unit square and each pair is linked with probability
// alpha * exp(-d / (waxmanFalloff * sqrt(2))). Components are then stitched
// together by their closest node pairs, so the result is always
// connected. Deterministic for a given option set.
func Waxman(o WaxmanOpts) *Topology {
	if o.Nodes < 2 {
		panic(fmt.Sprintf("topo: waxman size %d < 2", o.Nodes))
	}
	if o.Alpha == 0 {
		o.Alpha = 0.7
	}
	if o.Capacity == 0 {
		o.Capacity = 10e6
	}
	rng := rand.New(rand.NewSource(o.Seed))
	w := func() int64 { return 1 }
	if o.MaxWeight > 1 {
		max := o.MaxWeight
		w = func() int64 { return 1 + rng.Int63n(max) }
	}
	opts := LinkOpts{Capacity: o.Capacity}

	t := New()
	xs := make([]float64, o.Nodes)
	ys := make([]float64, o.Nodes)
	for i := 0; i < o.Nodes; i++ {
		t.AddNode(fmt.Sprintf("w%d", i))
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(i, j int) float64 {
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
	}
	scale := waxmanFalloff * math.Sqrt2
	for i := 0; i < o.Nodes; i++ {
		for j := i + 1; j < o.Nodes; j++ {
			if rng.Float64() < o.Alpha*math.Exp(-dist(i, j)/scale) {
				t.AddLink(NodeID(i), NodeID(j), w(), opts)
			}
		}
	}

	// Stitch components: repeatedly join the component of node 0 to the
	// closest outside node. Union-find over node indices.
	parent := make([]int, o.Nodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for _, l := range t.Links() {
		parent[find(int(l.From))] = find(int(l.To))
	}
	for {
		root := find(0)
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < o.Nodes; i++ {
			if find(i) != root {
				continue
			}
			for j := 0; j < o.Nodes; j++ {
				if find(j) == root {
					continue
				}
				if d := dist(i, j); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bi < 0 {
			break // single component
		}
		t.AddLink(NodeID(bi), NodeID(bj), w(), opts)
		parent[find(bi)] = find(bj)
	}

	// Attach the sink prefix at the most central node.
	sink, best := 0, math.Inf(1)
	for i := 0; i < o.Nodes; i++ {
		if d := math.Hypot(xs[i]-0.5, ys[i]-0.5); d < best {
			sink, best = i, d
		}
	}
	t.AddPrefix(netip.MustParsePrefix("10.230.0.0/16"), WaxmanPrefixName,
		Attachment{Node: NodeID(sink)})
	return t
}
