package te

import (
	"cmp"
	"fmt"
	"slices"

	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// Tunnel is one RSVP-TE LSP: an explicit path with a bandwidth
// reservation.
type Tunnel struct {
	Path      []topo.NodeID
	Bandwidth float64
	Demand    int // index of the demand it carries (diagnostics)
}

// RSVPTEResult is the outcome of the MPLS RSVP-TE baseline: explicit
// tunnels placed by constrained shortest-path-first, with the control- and
// data-plane overhead the paper holds against it.
type RSVPTEResult struct {
	Tunnels []Tunnel
	// MaxUtilisation over reserved bandwidth.
	MaxUtilisation float64
	// SignalingMessages counts PATH + RESV messages: 2 per tunnel hop —
	// the control-plane overhead of pre-provisioning tunnels.
	SignalingMessages int
	// StateEntries counts per-router LSP state: one per (tunnel, hop).
	StateEntries int
	// EncapBytesPerPacket is the MPLS label stack overhead every data
	// packet pays (Fibbing pays zero).
	EncapBytesPerPacket int
	// Unplaced lists demands (by index) that could not be fully placed.
	Unplaced []int
}

// PlaceTunnels runs the CSPF baseline: demands are processed largest
// first; each becomes one or more tunnels routed on the shortest path with
// sufficient residual capacity. When no single path fits a demand, the
// demand is split into halves recursively (down to minChunk) — RSVP-TE's
// way of achieving unequal splits, at the price of one more tunnel each
// time.
func PlaceTunnels(t *topo.Topology, demands []topo.Demand) (*RSVPTEResult, error) {
	residual := make(map[topo.LinkID]float64)
	for _, l := range t.Links() {
		residual[l.ID] = l.Capacity
	}
	res := &RSVPTEResult{EncapBytesPerPacket: 4}

	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(demands[b].Volume, demands[a].Volume) })

	for _, di := range order {
		d := demands[di]
		p, ok := t.PrefixByName(d.PrefixName)
		if !ok {
			return nil, fmt.Errorf("te: unknown prefix %q", d.PrefixName)
		}
		sinks := make(map[topo.NodeID]bool, len(p.Attachments))
		for _, a := range p.Attachments {
			sinks[a.Node] = true
		}
		if sinks[d.Ingress] {
			continue
		}
		minChunk := d.Volume / 16
		if !placeChunk(t, residual, res, di, d.Ingress, sinks, d.Volume, minChunk) {
			res.Unplaced = append(res.Unplaced, di)
		}
	}

	// Utilisation over reservations.
	used := make(map[topo.LinkID]float64)
	for _, tun := range res.Tunnels {
		for i := 0; i+1 < len(tun.Path); i++ {
			l, _ := t.FindLink(tun.Path[i], tun.Path[i+1])
			used[l.ID] += tun.Bandwidth
		}
	}
	res.MaxUtilisation = MaxUtilOfLoads(t, used)
	for _, tun := range res.Tunnels {
		hops := len(tun.Path) - 1
		res.SignalingMessages += 2 * hops
		res.StateEntries += hops
	}
	return res, nil
}

// placeChunk tries to fit volume on one constrained shortest path; on
// failure it recursively halves the chunk (two tunnels) until minChunk.
func placeChunk(t *topo.Topology, residual map[topo.LinkID]float64, res *RSVPTEResult,
	di int, src topo.NodeID, sinks map[topo.NodeID]bool, volume, minChunk float64) bool {
	path := cspf(t, residual, src, sinks, volume)
	if path != nil {
		for i := 0; i+1 < len(path); i++ {
			l, _ := t.FindLink(path[i], path[i+1])
			residual[l.ID] -= volume
		}
		res.Tunnels = append(res.Tunnels, Tunnel{Path: path, Bandwidth: volume, Demand: di})
		return true
	}
	if volume/2 < minChunk {
		return false
	}
	ok1 := placeChunk(t, residual, res, di, src, sinks, volume/2, minChunk)
	ok2 := placeChunk(t, residual, res, di, src, sinks, volume/2, minChunk)
	return ok1 && ok2
}

// cspf computes the shortest path from src to any sink using only links
// with residual capacity >= volume. Host nodes never transit.
func cspf(t *topo.Topology, residual map[topo.LinkID]float64, src topo.NodeID, sinks map[topo.NodeID]bool, volume float64) []topo.NodeID {
	g := spf.NewGraph(t.NumNodes())
	for _, l := range t.Links() {
		if t.Node(l.From).Host || t.Node(l.To).Host {
			continue
		}
		// Relative slack: residual within SolverRelTol of the requested
		// volume still fits (absolute slack would reject legitimate links
		// at Gbit volumes, where subtraction roundoff exceeds 1e-9).
		if l.Capacity > 0 && residual[l.ID] < volume*(1-SolverRelTol) {
			continue
		}
		g.AddEdge(l.From, spf.Edge{To: l.To, Weight: l.Weight, Link: l.ID})
	}
	tree := spf.ComputeRouters(g, t, src)
	bestDist := spf.Infinity
	var best topo.NodeID = topo.NoNode
	for s := range sinks {
		if tree.Reachable(s) && tree.Dist[s] < bestDist {
			bestDist, best = tree.Dist[s], s
		}
	}
	if best == topo.NoNode {
		return nil
	}
	paths := tree.Paths(best, 1)
	if len(paths) == 0 {
		return nil
	}
	return paths[0]
}

// OverheadComparison contrasts Fibbing's control/data-plane costs with
// RSVP-TE's for the same demand set (the paper's §2 argument).
type OverheadComparison struct {
	FibbingLies       int
	FibbingLSABytes   int
	FibbingEncapBytes int // always 0: plain IP forwarding

	Tunnels            int
	SignalingMessages  int
	StateEntries       int
	TunnelEncapBytes   int
	RSVPMaxUtilisation float64
	FibbingOptimal     float64
	FibbingRealised    float64
}

// CompareOverheads runs both machineries on the same input.
func CompareOverheads(t *topo.Topology, demands []topo.Demand) (*OverheadComparison, error) {
	fb, err := RealizeMinMax(t, demands)
	if err != nil {
		return nil, err
	}
	rsvp, err := PlaceTunnels(t, demands)
	if err != nil {
		return nil, err
	}
	cmp := &OverheadComparison{
		FibbingLies:        fb.Lies,
		FibbingEncapBytes:  0,
		Tunnels:            len(rsvp.Tunnels),
		SignalingMessages:  rsvp.SignalingMessages,
		StateEntries:       rsvp.StateEntries,
		TunnelEncapBytes:   rsvp.EncapBytesPerPacket,
		RSVPMaxUtilisation: rsvp.MaxUtilisation,
		FibbingOptimal:     fb.Optimal,
		FibbingRealised:    fb.Realised,
	}
	for _, lies := range fb.PerPrefixLies {
		for i, lie := range lies {
			cmp.FibbingLSABytes += len(lie.ToLSA(0xFFFF0000, uint32(i), 1).Encode())
		}
	}
	return cmp, nil
}
