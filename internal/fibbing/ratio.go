package fibbing

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// NegligibleSplit is the relative share below which a split ratio is
// treated as zero by ApproxWeights: a next hop asked to carry less than
// this fraction of a router's traffic is numerical noise (an LP solved
// at Gbit magnitudes legitimately reports such residues), not a path
// worth a fake node. The cutoff is relative to the fraction vector's own
// sum, so it is invariant under uniform rescaling of the inputs — and
// far below anything a realisable ECMP weight vector could honour
// anyway: the smallest nonzero share a denominator-q vector can express
// is 1/q, orders of magnitude above this.
const NegligibleSplit = 1e-6

// ApproxWeights converts fractional split ratios into small integer ECMP
// weights, the quantity Fibbing can realise by duplicating fake next hops.
//
// It searches all denominators q in [1, maxDenom] and returns the weight
// vector (summing to the chosen q) minimising the maximum absolute error
// |w_i/q - f_i|, preferring smaller q on ties (fewer fake nodes). Every
// fraction above NegligibleSplit (relative to the vector's sum) is
// guaranteed a weight of at least 1, so no requested path is silently
// dropped; fractions at or below it are quantisation noise and get
// weight 0.
func ApproxWeights(fractions []float64, maxDenom int) ([]int, error) {
	if maxDenom < 1 {
		return nil, fmt.Errorf("fibbing: maxDenom %d < 1", maxDenom)
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("fibbing: empty fraction vector")
	}
	sum := 0.0
	for _, f := range fractions {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("fibbing: bad fraction %v", f)
		}
		sum += f
	}
	if sum <= 0 {
		return nil, fmt.Errorf("fibbing: fractions sum to zero")
	}
	norm := make([]float64, len(fractions))
	positive := 0
	for i, f := range fractions {
		norm[i] = f / sum
		if norm[i] <= NegligibleSplit {
			norm[i] = 0 // solver noise, not a requested path
		} else {
			positive++
		}
	}
	if positive == 0 {
		return nil, fmt.Errorf("fibbing: fractions sum to zero")
	}
	if positive > maxDenom {
		return nil, fmt.Errorf("fibbing: %d positive fractions need denominator > %d", positive, maxDenom)
	}

	bestErr := math.Inf(1)
	var best []int
	for q := positive; q <= maxDenom; q++ {
		w := roundToSum(norm, q)
		if w == nil {
			continue
		}
		e := 0.0
		for i := range w {
			if d := math.Abs(float64(w[i])/float64(q) - norm[i]); d > e {
				e = d
			}
		}
		if e < bestErr-1e-12 {
			bestErr, best = e, w
		}
	}
	if best == nil {
		return nil, fmt.Errorf("fibbing: no feasible weight vector within denominator %d", maxDenom)
	}
	return best, nil
}

// roundToSum rounds norm*q to integers summing exactly to q, keeping every
// positive fraction at weight >= 1. Returns nil if infeasible for this q.
func roundToSum(norm []float64, q int) []int {
	w := make([]int, len(norm))
	frac := make([]float64, len(norm))
	total := 0
	for i, f := range norm {
		x := f * float64(q)
		w[i] = int(math.Floor(x))
		if f > 0 && w[i] == 0 {
			w[i] = 1
			frac[i] = -1 // pinned up; avoid removing below
		} else {
			frac[i] = x - float64(w[i])
		}
		total += w[i]
	}
	type cand struct {
		idx  int
		frac float64
	}
	switch {
	case total < q:
		// Distribute the remaining units to the largest remainders.
		cands := make([]cand, 0, len(norm))
		for i := range norm {
			cands = append(cands, cand{i, frac[i]})
		}
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(b.frac, a.frac) })
		for k := 0; total < q; k++ {
			w[cands[k%len(cands)].idx]++
			total++
		}
	case total > q:
		// Remove units from the smallest remainders, never below 1 for
		// positive fractions.
		cands := make([]cand, 0, len(norm))
		for i := range norm {
			cands = append(cands, cand{i, frac[i]})
		}
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.frac, b.frac) })
		for k := 0; total > q && k < 10*len(cands); k++ {
			i := cands[k%len(cands)].idx
			min := 0
			if norm[i] > 0 {
				min = 1
			}
			if w[i] > min {
				w[i]--
				total--
			}
		}
		if total > q {
			return nil
		}
	}
	return w
}

// WeightsError returns the maximum absolute deviation between the realised
// ratios w/sum(w) and the target fractions (after normalisation).
func WeightsError(weights []int, fractions []float64) float64 {
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	sumF := 0.0
	for _, f := range fractions {
		sumF += f
	}
	if sumW == 0 || sumF == 0 {
		return math.Inf(1)
	}
	e := 0.0
	for i := range weights {
		d := math.Abs(float64(weights[i])/float64(sumW) - fractions[i]/sumF)
		if d > e {
			e = d
		}
	}
	return e
}

// MaxDenom bounds the ECMP weight denominator when realising fractional
// splits: at most 16 fake nodes per router per destination.
const MaxDenom = 16

// Requirement turns one prefix's fractional splits (from a TE solver)
// into the requirement DAG Compile realises: SplitsToDAG at MaxDenom,
// without the prefix's attachment routers, which deliver locally.
func Requirement(t *topo.Topology, prefix string, splits map[topo.NodeID]map[topo.NodeID]float64) (DAG, error) {
	p, ok := t.PrefixByName(prefix)
	if !ok {
		return nil, fmt.Errorf("fibbing: unknown prefix %q", prefix)
	}
	dag, err := SplitsToDAG(splits, MaxDenom)
	if err != nil {
		return nil, err
	}
	for _, a := range p.Attachments {
		delete(dag, a.Node)
	}
	return dag, nil
}

// SplitsToDAG converts per-router fractional splits (from a TE solver)
// into a weighted forwarding DAG using ApproxWeights per router.
func SplitsToDAG(splits map[topo.NodeID]map[topo.NodeID]float64, maxDenom int) (DAG, error) {
	dag := make(DAG, len(splits))
	for u, frac := range splits {
		if len(frac) == 0 {
			continue
		}
		nodes := make([]topo.NodeID, 0, len(frac))
		for v := range frac {
			nodes = append(nodes, v)
		}
		slices.Sort(nodes)
		fr := make([]float64, len(nodes))
		for i, v := range nodes {
			fr[i] = frac[v]
		}
		w, err := ApproxWeights(fr, maxDenom)
		if err != nil {
			return nil, fmt.Errorf("fibbing: router %d: %w", u, err)
		}
		nhw := NextHopWeights{}
		for i, v := range nodes {
			if w[i] > 0 {
				nhw[v] = w[i]
			}
		}
		if len(nhw) > 0 {
			dag[u] = nhw
		}
	}
	return dag, nil
}
