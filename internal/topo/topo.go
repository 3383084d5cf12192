// Package topo models weighted, capacitated network topologies as used by
// link-state interior gateway protocols (IGPs).
//
// A Topology is a set of named nodes (routers and stub hosts) connected by
// directed links, at most one per ordered pair of nodes. Undirected
// (symmetric) links are stored as two directed half-links that reference
// each other. Destination prefixes are attached to one or more nodes,
// mirroring how an IGP router originates a prefix.
//
// The package also ships the canonical topology of the paper's Figure 1
// (see Fig1) and deterministic random-topology generators used by the
// traffic-engineering benchmarks.
package topo

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"
)

// NodeID is a dense index identifying a node inside one Topology.
type NodeID int32

// NoNode is the sentinel for "no such node".
const NoNode NodeID = -1

// LinkID is a dense index identifying a directed link inside one Topology.
type LinkID int32

// NoLink is the sentinel for "no such link".
const NoLink LinkID = -1

// Node is a vertex of the topology: a router, or a stub host hanging off a
// router (hosts never transit traffic and never run the IGP).
type Node struct {
	ID   NodeID
	Name string
	// Host marks stub endpoints (video servers and clients). Hosts do not
	// participate in SPF as transit nodes.
	Host bool
}

// Link is one directed edge. A symmetric link is two Links that point at
// each other through Reverse.
type Link struct {
	ID   LinkID
	From NodeID
	To   NodeID
	// Weight is the IGP metric of the link. Must be >= 1 for valid
	// topologies (OSPF semantics).
	Weight int64
	// Capacity in bits per second. Zero means "unconstrained" (used for
	// host access links in some scenarios).
	Capacity float64
	// Delay is the one-way propagation delay, used by the event-driven
	// flooding simulation.
	Delay time.Duration
	// Reverse is the LinkID of the opposite direction, or NoLink for a
	// unidirectional link.
	Reverse LinkID
}

// Attachment binds a prefix to an announcing node at a given cost.
type Attachment struct {
	Node NodeID
	Cost int64
}

// Prefix is a destination prefix originated by one or more nodes.
type Prefix struct {
	Prefix      netip.Prefix
	Name        string
	Attachments []Attachment
}

// Topology is an immutable-after-build graph. Use New and the Add* methods
// to construct one, then Validate.
type Topology struct {
	nodes    []Node
	links    []Link
	out      [][]LinkID
	in       [][]LinkID
	byName   map[string]NodeID
	prefixes []Prefix
	version  uint64 // SetWeight calls so far
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{byName: make(map[string]NodeID)}
}

// AddNode adds a router node with the given name and returns its ID.
// Adding a duplicate name panics: topology construction errors are
// programming errors.
func (t *Topology) AddNode(name string) NodeID {
	return t.addNode(name, false)
}

// AddHost adds a stub host node (e.g. a video server or client).
func (t *Topology) AddHost(name string) NodeID {
	return t.addNode(name, true)
}

func (t *Topology) addNode(name string, host bool) NodeID {
	if name == "" {
		panic("topo: empty node name")
	}
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("topo: duplicate node %q", name))
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Host: host})
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	t.byName[name] = id
	return id
}

// LinkOpts carries the optional attributes of a link.
type LinkOpts struct {
	Capacity float64       // bits per second; 0 = unconstrained
	Delay    time.Duration // one-way propagation delay
}

// AddDirectedLink adds a single directed link and returns its ID. A
// second link between the same ordered pair panics: forwarding names the
// next router, so one link per pair is what lets FindLink recover it.
func (t *Topology) AddDirectedLink(from, to NodeID, weight int64, opts LinkOpts) LinkID {
	t.checkNode(from)
	t.checkNode(to)
	if from == to {
		panic("topo: self-loop link")
	}
	if weight < 1 {
		panic(fmt.Sprintf("topo: link weight %d < 1", weight))
	}
	if _, dup := t.FindLink(from, to); dup {
		panic(fmt.Sprintf("topo: parallel link %s->%s", t.nodes[from].Name, t.nodes[to].Name))
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{
		ID: id, From: from, To: to,
		Weight: weight, Capacity: opts.Capacity, Delay: opts.Delay,
		Reverse: NoLink,
	})
	t.out[from] = append(t.out[from], id)
	t.in[to] = append(t.in[to], id)
	return id
}

// AddLink adds a symmetric link (two directed half-links with identical
// weight, capacity and delay) and returns both IDs.
func (t *Topology) AddLink(a, b NodeID, weight int64, opts LinkOpts) (ab, ba LinkID) {
	ab = t.AddDirectedLink(a, b, weight, opts)
	ba = t.AddDirectedLink(b, a, weight, opts)
	t.links[ab].Reverse = ba
	t.links[ba].Reverse = ab
	return ab, ba
}

// AddPrefix attaches a prefix to the topology. Multiple attachments model
// anycast or multi-homed prefixes.
func (t *Topology) AddPrefix(p netip.Prefix, name string, at ...Attachment) {
	if !p.IsValid() {
		panic("topo: invalid prefix")
	}
	for _, a := range at {
		t.checkNode(a.Node)
		if a.Cost < 0 {
			panic("topo: negative attachment cost")
		}
	}
	t.prefixes = append(t.prefixes, Prefix{Prefix: p.Masked(), Name: name, Attachments: at})
}

func (t *Topology) checkNode(n NodeID) {
	if n < 0 || int(n) >= len(t.nodes) {
		panic(fmt.Sprintf("topo: node %d out of range", n))
	}
}

// NumNodes returns the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the number of directed links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node {
	t.checkNode(id)
	return t.nodes[id]
}

// Link returns the directed link with the given ID.
func (t *Topology) Link(id LinkID) Link {
	if id < 0 || int(id) >= len(t.links) {
		panic(fmt.Sprintf("topo: link %d out of range", id))
	}
	return t.links[id]
}

// NodeByName looks a node up by name.
func (t *Topology) NodeByName(name string) (NodeID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// MustNode looks a node up by name and panics if absent. Intended for
// scenario construction where the name set is static.
func (t *Topology) MustNode(name string) NodeID {
	id, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: no node %q", name))
	}
	return id
}

// Name returns the name of a node; convenient in logs.
func (t *Topology) Name(id NodeID) string {
	if id == NoNode {
		return "<none>"
	}
	return t.Node(id).Name
}

// OutLinks returns the IDs of links leaving n. The returned slice is owned
// by the topology and must not be mutated.
func (t *Topology) OutLinks(n NodeID) []LinkID {
	t.checkNode(n)
	return t.out[n]
}

// InLinks returns the IDs of links entering n.
func (t *Topology) InLinks(n NodeID) []LinkID {
	t.checkNode(n)
	return t.in[n]
}

// Links returns a copy of all directed links.
func (t *Topology) Links() []Link {
	out := make([]Link, len(t.links))
	copy(out, t.links)
	return out
}

// Nodes returns a copy of all nodes.
func (t *Topology) Nodes() []Node {
	out := make([]Node, len(t.nodes))
	copy(out, t.nodes)
	return out
}

// Prefixes returns a copy of all prefixes.
func (t *Topology) Prefixes() []Prefix {
	out := make([]Prefix, len(t.prefixes))
	copy(out, t.prefixes)
	return out
}

// PrefixByName returns the prefix with the given symbolic name.
func (t *Topology) PrefixByName(name string) (Prefix, bool) {
	for _, p := range t.prefixes {
		if p.Name == name {
			return p, true
		}
	}
	return Prefix{}, false
}

// FindLink returns the directed link from a to b, if one exists; there is
// at most one per ordered pair.
func (t *Topology) FindLink(a, b NodeID) (Link, bool) {
	for _, id := range t.OutLinks(a) {
		if l := t.links[id]; l.To == b {
			return l, true
		}
	}
	return Link{}, false
}

// MustLinkBetween returns the directed link between two named nodes, and
// panics if absent.
func (t *Topology) MustLinkBetween(a, b string) Link {
	l, ok := t.FindLink(t.MustNode(a), t.MustNode(b))
	if !ok {
		panic(fmt.Sprintf("topo: no link %s->%s", a, b))
	}
	return l
}

// SetWeight rewrites the weight of one directed link. It is the only
// permitted post-construction mutation; the IGP weight-optimisation baseline
// uses it to explore weight settings.
func (t *Topology) SetWeight(id LinkID, w int64) {
	if w < 1 {
		panic("topo: weight < 1")
	}
	t.links[id].Weight = w
	t.version++
}

// Version counts the SetWeight calls the topology has seen. A derived
// structure (SPF trees, a fibbing.Evaluator) built at one version is
// stale once the version moves: holders compare it with the version they
// built against, as the controller's planner cache does.
func (t *Topology) Version() uint64 { return t.version }

// Clone returns a deep copy of the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		nodes:    append([]Node(nil), t.nodes...),
		links:    append([]Link(nil), t.links...),
		out:      make([][]LinkID, len(t.out)),
		in:       make([][]LinkID, len(t.in)),
		byName:   make(map[string]NodeID, len(t.byName)),
		prefixes: make([]Prefix, len(t.prefixes)),
	}
	for i := range t.out {
		c.out[i] = append([]LinkID(nil), t.out[i]...)
	}
	for i := range t.in {
		c.in[i] = append([]LinkID(nil), t.in[i]...)
	}
	for k, v := range t.byName {
		c.byName[k] = v
	}
	for i, p := range t.prefixes {
		cp := p
		cp.Attachments = append([]Attachment(nil), p.Attachments...)
		c.prefixes[i] = cp
	}
	return c
}

// CloneWithoutLinks returns a deep copy of the topology with the given
// directed links — and their reverse halves — removed. Node IDs, names
// and prefixes are preserved, so routes, lies and demands expressed in
// node space stay valid against the clone; link IDs are re-densified and
// therefore differ from the original's. The failover planner uses it to
// answer "what if this link were gone" without mutating the live
// topology.
func (t *Topology) CloneWithoutLinks(drop ...LinkID) *Topology {
	gone := make(map[LinkID]bool, 2*len(drop))
	for _, id := range drop {
		if id < 0 || int(id) >= len(t.links) {
			continue
		}
		gone[id] = true
		if r := t.links[id].Reverse; r != NoLink {
			gone[r] = true
		}
	}
	c := &Topology{
		nodes:    append([]Node(nil), t.nodes...),
		out:      make([][]LinkID, len(t.out)),
		in:       make([][]LinkID, len(t.in)),
		byName:   make(map[string]NodeID, len(t.byName)),
		prefixes: make([]Prefix, len(t.prefixes)),
	}
	for k, v := range t.byName {
		c.byName[k] = v
	}
	remap := make(map[LinkID]LinkID, len(t.links))
	for _, l := range t.links {
		if gone[l.ID] {
			continue
		}
		nl := l
		nl.ID = LinkID(len(c.links))
		remap[l.ID] = nl.ID
		c.links = append(c.links, nl)
		c.out[nl.From] = append(c.out[nl.From], nl.ID)
		c.in[nl.To] = append(c.in[nl.To], nl.ID)
	}
	// Both halves of a symmetric pair survive or neither does, so every
	// surviving Reverse has a remap entry.
	for i := range c.links {
		if r := c.links[i].Reverse; r != NoLink {
			c.links[i].Reverse = remap[r]
		}
	}
	for i, p := range t.prefixes {
		cp := p
		cp.Attachments = append([]Attachment(nil), p.Attachments...)
		c.prefixes[i] = cp
	}
	return c
}

// Validate checks structural invariants: weights >= 1, reverse pointers
// consistent, every prefix attached to at least one node, and that the
// router subgraph is connected (hosts may be leaves).
func (t *Topology) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("topo: empty topology")
	}
	for _, l := range t.links {
		if l.Weight < 1 {
			return fmt.Errorf("topo: link %s->%s has weight %d < 1",
				t.Name(l.From), t.Name(l.To), l.Weight)
		}
		if l.Reverse != NoLink {
			r := t.Link(l.Reverse)
			if r.From != l.To || r.To != l.From || r.Reverse != l.ID {
				return fmt.Errorf("topo: inconsistent reverse pointer on link %d", l.ID)
			}
		}
		if l.Capacity < 0 {
			return fmt.Errorf("topo: negative capacity on link %d", l.ID)
		}
	}
	for _, p := range t.prefixes {
		if len(p.Attachments) == 0 {
			return fmt.Errorf("topo: prefix %s has no attachment", p.Prefix)
		}
	}
	if err := t.checkConnected(); err != nil {
		return err
	}
	return nil
}

// checkConnected verifies that all routers are mutually reachable over the
// directed graph between routers (weak check: BFS from the first router
// must reach all). The search stops at hosts: the IGP forms no adjacency
// across a host, so routers joined only through one are partitioned.
func (t *Topology) checkConnected() error {
	var start NodeID = NoNode
	routers := 0
	for _, n := range t.nodes {
		if !n.Host {
			routers++
			if start == NoNode {
				start = n.ID
			}
		}
	}
	if routers == 0 {
		return nil
	}
	seen := make([]bool, len(t.nodes))
	queue := []NodeID{start}
	seen[start] = true
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range t.out[u] {
			v := t.links[lid].To
			if !seen[v] && !t.nodes[v].Host {
				seen[v] = true
				reached++
				queue = append(queue, v)
			}
		}
	}
	if reached != routers {
		return fmt.Errorf("topo: router graph not connected (%d of %d reachable from %s)",
			reached, routers, t.Name(start))
	}
	return nil
}

// String renders the topology in the textual format accepted by Parse.
func (t *Topology) String() string {
	var b strings.Builder
	names := make([]string, 0, len(t.nodes))
	for _, n := range t.nodes {
		names = append(names, n.Name)
	}
	slices.Sort(names)
	for _, name := range names {
		n := t.nodes[t.byName[name]]
		if n.Host {
			fmt.Fprintf(&b, "host %s\n", n.Name)
		} else {
			fmt.Fprintf(&b, "router %s\n", n.Name)
		}
	}
	// Emit symmetric links once (lower ID of the pair), directed links as-is.
	for _, l := range t.links {
		if l.Reverse != NoLink && l.Reverse < l.ID {
			rev := t.Link(l.Reverse)
			if rev.Weight == l.Weight && rev.Capacity == l.Capacity && rev.Delay == l.Delay {
				continue // already emitted as "link"
			}
		}
		kind := "dlink"
		if l.Reverse != NoLink {
			rev := t.Link(l.Reverse)
			if rev.Weight == l.Weight && rev.Capacity == l.Capacity && rev.Delay == l.Delay && l.Reverse > l.ID {
				kind = "link"
			}
		}
		fmt.Fprintf(&b, "%s %s %s weight %d", kind, t.Name(l.From), t.Name(l.To), l.Weight)
		if l.Capacity > 0 {
			fmt.Fprintf(&b, " capacity %s", FormatBits(l.Capacity))
		}
		if l.Delay > 0 {
			fmt.Fprintf(&b, " delay %s", l.Delay)
		}
		b.WriteByte('\n')
	}
	for _, p := range t.prefixes {
		fmt.Fprintf(&b, "prefix %s name %s", p.Prefix, p.Name)
		for _, a := range p.Attachments {
			fmt.Fprintf(&b, " at %s cost %d", t.Name(a.Node), a.Cost)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatBits renders a bit-per-second value with an M/G/K suffix, as
// accepted by ParseBits.
func FormatBits(bps float64) string {
	switch {
	case bps >= 1e9 && bps == float64(int64(bps/1e9))*1e9:
		return fmt.Sprintf("%gG", bps/1e9)
	case bps >= 1e6 && bps == float64(int64(bps/1e6))*1e6:
		return fmt.Sprintf("%gM", bps/1e6)
	case bps >= 1e3 && bps == float64(int64(bps/1e3))*1e3:
		return fmt.Sprintf("%gK", bps/1e3)
	default:
		return fmt.Sprintf("%g", bps)
	}
}
