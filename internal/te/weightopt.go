package te

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// WeightOptResult reports an IGP weight-optimisation run — the traditional
// TE scheme the paper calls too slow and too disruptive for flash crowds.
type WeightOptResult struct {
	// Weights is the best weight per directed link.
	Weights map[topo.LinkID]int64
	// Cost is the Fortz-Thorup congestion cost of the best setting.
	Cost float64
	// MaxUtilisation under the best setting.
	MaxUtilisation float64
	// WeightChanges counts how many individual link weights differ from
	// the starting configuration: each one is a per-device
	// reconfiguration step with a network-wide reconvergence — the
	// "too slow" overhead.
	WeightChanges int
	// Evaluations counts objective evaluations (search effort).
	Evaluations int
}

// FortzThorupCost is the classic piecewise-linear congestion cost of a
// utilisation value (Fortz & Thorup, INFOCOM 2000).
func FortzThorupCost(util float64) float64 {
	switch {
	case util < 1.0/3:
		return util
	case util < 2.0/3:
		return 3*util - 2.0/3
	case util < 0.9:
		return 10*util - 16.0/3
	case util < 1.0:
		return 70*util - 178.0/3
	case util < 1.1:
		return 500*util - 1468.0/3
	default:
		return 5000*util - 16318.0/3
	}
}

// networkCost evaluates the summed Fortz-Thorup cost of routing demands
// over ECMP shortest paths under the current weights. It sums in link-id
// order, so the same weights always cost the same bits: OptimizeWeights
// compares costs with a 1e-12 slack, and a map-order sum can differ by
// more than that between two evaluations of one setting.
func networkCost(t *topo.Topology, demands []topo.Demand) (cost, maxUtil float64, err error) {
	loads, err := IGPLoads(t, demands)
	if err != nil {
		return 0, 0, err
	}
	for _, id := range slices.Sorted(maps.Keys(loads)) {
		load := loads[id]
		l := t.Link(id)
		if l.Capacity <= 0 {
			continue
		}
		u := load / l.Capacity
		cost += FortzThorupCost(u)
		if u > maxUtil {
			maxUtil = u
		}
	}
	return cost, maxUtil, nil
}

// OptimizeWeights runs a local search over integer link weights: for each
// symmetric link in turn it tries a set of candidate weights, keeps the
// best improvement, and repeats until a full pass yields no improvement or
// maxPasses is reached. The search mutates a clone; the input topology is
// untouched.
func OptimizeWeights(t *topo.Topology, demands []topo.Demand, maxWeight int64, maxPasses int) (*WeightOptResult, error) {
	if maxWeight < 2 {
		return nil, fmt.Errorf("te: maxWeight must be >= 2")
	}
	work := t.Clone()
	res := &WeightOptResult{Weights: make(map[topo.LinkID]int64)}

	cost, maxUtil, err := networkCost(work, demands)
	if err != nil {
		return nil, err
	}
	res.Evaluations++

	// Candidate weights per link: sparse geometric ladder keeps the
	// search cheap while covering the range.
	var candidates []int64
	for w := int64(1); w <= maxWeight; {
		candidates = append(candidates, w)
		if w < 4 {
			w++
		} else {
			w += w / 2
		}
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, l := range work.Links() {
			if l.Reverse != topo.NoLink && l.Reverse < l.ID {
				continue // handle each symmetric pair once
			}
			if work.Node(l.From).Host || work.Node(l.To).Host {
				continue
			}
			orig := work.Link(l.ID).Weight
			bestW, bestCost, bestUtil := orig, cost, maxUtil
			for _, w := range candidates {
				if w == orig {
					continue
				}
				setPair(work, l, w)
				c, u, err := networkCost(work, demands)
				res.Evaluations++
				if err == nil && c < bestCost-1e-12 {
					bestW, bestCost, bestUtil = w, c, u
				}
			}
			setPair(work, l, bestW)
			if bestW != orig {
				cost, maxUtil = bestCost, bestUtil
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	for _, l := range work.Links() {
		res.Weights[l.ID] = work.Link(l.ID).Weight
		if work.Link(l.ID).Weight != t.Link(l.ID).Weight {
			res.WeightChanges++
		}
	}
	res.Cost = cost
	res.MaxUtilisation = maxUtil
	return res, nil
}

func setPair(t *topo.Topology, l topo.Link, w int64) {
	t.SetWeight(l.ID, w)
	if l.Reverse != topo.NoLink {
		t.SetWeight(l.Reverse, w)
	}
}

// ECMPOnlyUtilisation evaluates the max utilisation of plain ECMP routing
// (the no-reaction baseline of Figure 1b).
func ECMPOnlyUtilisation(t *topo.Topology, demands []topo.Demand) (float64, error) {
	loads, err := IGPLoads(t, demands)
	if err != nil {
		return 0, err
	}
	return MaxUtilOfLoads(t, loads), nil
}

// FibbingRealisation reports the utilisation Fibbing achieves when realising
// the LP-optimal splits with denominator-bounded ECMP weights: solve the
// LP, turn each prefix's splits into a requirement (fibbing.Requirement),
// compile verified lies (fibbing.Evaluator.Compile, as the controller
// does), and route the demands over the augmented network. The gap to
// the LP optimum is purely the ratio-quantisation error.
type FibbingRealisation struct {
	Optimal       float64 // LP optimum θ*
	Realised      float64 // utilisation with quantised ECMP weights
	Lies          int
	PerPrefixLies map[string][]fibbing.Lie
}

// RealizeMinMax runs the full pipeline LP -> splits -> requirement ->
// verified lies, one prefix at a time in name order, so a failure always
// names the same prefix.
func RealizeMinMax(t *topo.Topology, demands []topo.Demand) (*FibbingRealisation, error) {
	opt, err := SolveMinMax(t, demands)
	if err != nil {
		return nil, err
	}
	out := &FibbingRealisation{
		Optimal:       opt.MaxUtilisation,
		PerPrefixLies: make(map[string][]fibbing.Lie),
	}
	ev := fibbing.NewEvaluator(t)
	for _, name := range slices.Sorted(maps.Keys(opt.Splits)) {
		dag, err := fibbing.Requirement(t, name, opt.Splits[name])
		if err != nil {
			return nil, fmt.Errorf("te: realising %s: %w", name, err)
		}
		aug, _, err := ev.Compile(name, dag)
		if err != nil {
			return nil, fmt.Errorf("te: realising %s: %w", name, err)
		}
		out.PerPrefixLies[name] = aug.Lies
		out.Lies += len(aug.Lies)
	}
	loads, err := LoadsWithLies(t, out.PerPrefixLies, demands)
	if err != nil {
		return nil, err
	}
	out.Realised = MaxUtilOfLoads(t, loads)
	if math.IsNaN(out.Realised) {
		return nil, fmt.Errorf("te: realised utilisation is NaN")
	}
	return out, nil
}
