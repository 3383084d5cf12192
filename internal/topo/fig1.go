package topo

import (
	"net/netip"
	"time"
)

// Names of the Figure 1 entities, exported so scenarios and tests can refer
// to them without magic strings.
const (
	Fig1A  = "A"
	Fig1B  = "B"
	Fig1R1 = "R1"
	Fig1R2 = "R2"
	Fig1R3 = "R3"
	Fig1R4 = "R4"
	Fig1C  = "C"
	Fig1S1 = "S1" // video server behind B
	Fig1S2 = "S2" // video server behind A
	Fig1D1 = "D1" // clients of S1, in the blue prefix at C
	Fig1D2 = "D2" // clients of S2, in the blue prefix at C

	// Fig1BluePrefixName is the symbolic name of the destination prefix
	// the flash crowd targets ("blue" in the paper's figures).
	Fig1BluePrefixName = "blue"
)

// Fig1BluePrefix is the destination prefix attached at router C.
var Fig1BluePrefix = netip.MustParsePrefix("10.66.0.0/16")

// Fig1Opts parameterises the Figure 1 topology.
type Fig1Opts struct {
	// LinkCapacity is the capacity of every core link in bit/s.
	// The paper's demo uses links that one video wave can saturate;
	// DefaultFig1Capacity matches Figure 2's ~2 MB/s scale.
	LinkCapacity float64
	// Delay is the per-link propagation delay (flooding realism).
	Delay time.Duration
	// WithHosts adds S1, S2, D1, D2 stub hosts.
	WithHosts bool
}

// DefaultFig1Capacity is 16 Mbit/s: Figure 2's y-axis tops out around
// 2e6 byte/s per link, i.e. 16e6 bit/s.
const DefaultFig1Capacity = 16e6

// Fig1 builds the six-router topology of the paper's Figure 1:
//
//	A ──1── B ──1── R2 ──1── C
//	│2      └──2── R3 ──1────┘
//	R1 ──1── R4 ──2── C
//
// Unspecified weights are 1; the marked "2" weights are A–R1, B–R3 and
// R4–C. With these weights the pre-Fibbing shortest paths are
// A→B→R2→C and B→R2→C, overlapping on B–R2–C exactly as in Figure 1a.
// The blue prefix is originated by C at cost 0.
func Fig1(o Fig1Opts) *Topology {
	if o.LinkCapacity == 0 {
		o.LinkCapacity = DefaultFig1Capacity
	}
	core := LinkOpts{Capacity: o.LinkCapacity, Delay: o.Delay}
	// Host access links are never the bottleneck, as in the demo.
	access := LinkOpts{Capacity: 10 * o.LinkCapacity, Delay: o.Delay}

	t := New()
	a := t.AddNode(Fig1A)
	b := t.AddNode(Fig1B)
	r1 := t.AddNode(Fig1R1)
	r2 := t.AddNode(Fig1R2)
	r3 := t.AddNode(Fig1R3)
	r4 := t.AddNode(Fig1R4)
	c := t.AddNode(Fig1C)

	t.AddLink(a, b, 1, core)
	t.AddLink(a, r1, 2, core)
	t.AddLink(b, r2, 1, core)
	t.AddLink(b, r3, 2, core)
	t.AddLink(r2, c, 1, core)
	t.AddLink(r3, c, 1, core)
	t.AddLink(r1, r4, 1, core)
	t.AddLink(r4, c, 2, core)

	t.AddPrefix(Fig1BluePrefix, Fig1BluePrefixName, Attachment{Node: c, Cost: 0})

	if o.WithHosts {
		s1 := t.AddHost(Fig1S1)
		s2 := t.AddHost(Fig1S2)
		d1 := t.AddHost(Fig1D1)
		d2 := t.AddHost(Fig1D2)
		t.AddLink(s1, b, 1, access)
		t.AddLink(s2, a, 1, access)
		t.AddLink(d1, c, 1, access)
		t.AddLink(d2, c, 1, access)
	}
	return t
}

// Fig1Demands returns the relative traffic demands of Figure 1b: both
// sources surge by 100 relative units towards the blue prefix, loading
// A–B with 100 and B–R2, R2–C with 200 before Fibbing reacts.
type Demand struct {
	// Ingress is the router where the demand enters the network.
	Ingress NodeID
	// PrefixName identifies the destination prefix by symbolic name.
	PrefixName string
	// Volume is the demand in the same unit as link capacities (or in
	// relative units for analytic experiments).
	Volume float64
}

// Fig1Demands builds the Figure 1b demand set on the given Fig1 topology.
func Fig1Demands(t *Topology, volume float64) []Demand {
	return []Demand{
		{Ingress: t.MustNode(Fig1B), PrefixName: Fig1BluePrefixName, Volume: volume},
		{Ingress: t.MustNode(Fig1A), PrefixName: Fig1BluePrefixName, Volume: volume},
	}
}
