package spf

import (
	"cmp"
	"slices"

	"fibbing.net/fibbing/internal/topo"
)

// KShortest computes up to k loopless shortest paths from src to dst using
// Yen's algorithm. Paths are returned in non-decreasing cost order;
// equal-cost ties are broken deterministically (lexicographic node order).
// Used by path-based TE heuristics that need alternatives beyond the ECMP
// set (e.g. evaluating detour candidates).
func KShortest(g *Graph, src, dst topo.NodeID, k int, skip func(topo.NodeID) bool) [][]topo.NodeID {
	return KShortestSpurLimit(g, src, dst, k, 0, skip)
}

// KShortestSpurLimit is KShortest with Yen's spur scan bounded to the
// first spurLimit nodes of each parent path (0 means unbounded). Bounding
// the scan keeps the search O(spurLimit) Dijkstras per accepted path
// instead of O(path length): deviations near the source are the ones
// load-balancing can exploit, and on long sparse paths (a 64-node ring)
// the unbounded scan spends thousands of Dijkstras proving no further
// path exists.
func KShortestSpurLimit(g *Graph, src, dst topo.NodeID, k, spurLimit int, skip func(topo.NodeID) bool) [][]topo.NodeID {
	if k <= 0 || src == dst {
		return nil
	}
	pathCost := func(p []topo.NodeID) int64 {
		var sum int64
		for i := 0; i+1 < len(p); i++ {
			best := Infinity
			for _, e := range g.Out[p[i]] {
				if e.To == p[i+1] && e.Weight < best {
					best = e.Weight
				}
			}
			if best == Infinity {
				return Infinity
			}
			sum += best
		}
		return sum
	}

	var sc Scratch // the first search and every spur search share it
	first := sc.Compute(g, src, skip)
	fp := first.Paths(dst, 1)
	if len(fp) == 0 {
		return nil
	}
	result := [][]topo.NodeID{fp[0]}
	var candidates []kcand

	for len(result) < k {
		prev := result[len(result)-1]
		// For each spur node of the previous path, search a deviation.
		spurs := len(prev) - 1
		if spurLimit > 0 && spurs > spurLimit {
			spurs = spurLimit
		}
		for i := 0; i < spurs; i++ {
			spur := prev[i]
			root := prev[:i+1]

			// Build a filtered graph: remove edges used by previous
			// results sharing this root, and remove root nodes (except
			// the spur) to keep paths loopless.
			banned := make(map[[2]topo.NodeID]bool)
			for _, r := range result {
				if len(r) > i && equalPrefix(r, root) {
					banned[[2]topo.NodeID{r[i], r[i+1]}] = true
				}
			}
			removed := make(map[topo.NodeID]bool, i)
			for _, n := range root[:len(root)-1] {
				removed[n] = true
			}
			fg := NewGraph(g.NumNodes())
			for u := range g.Out {
				if removed[topo.NodeID(u)] {
					continue
				}
				for _, e := range g.Out[u] {
					if removed[e.To] || banned[[2]topo.NodeID{topo.NodeID(u), e.To}] {
						continue
					}
					fg.AddEdge(topo.NodeID(u), e)
				}
			}
			st := sc.Compute(fg, spur, skip)
			sp := st.Paths(dst, 1)
			if len(sp) == 0 {
				continue
			}
			total := append(append([]topo.NodeID(nil), root[:len(root)-1]...), sp[0]...)
			if containsPath(result, total) || containsCand(candidates, total) {
				continue
			}
			candidates = append(candidates, kcand{path: total, cost: pathCost(total)})
		}
		if len(candidates) == 0 {
			break
		}
		slices.SortFunc(candidates, func(a, b kcand) int {
			if c := cmp.Compare(a.cost, b.cost); c != 0 {
				return c
			}
			if lessPath(a.path, b.path) {
				return -1
			}
			if lessPath(b.path, a.path) {
				return 1
			}
			return 0
		})
		result = append(result, candidates[0].path)
		candidates = candidates[1:]
	}
	return result
}

func equalPrefix(p, root []topo.NodeID) bool {
	if len(p) < len(root) {
		return false
	}
	for i := range root {
		if p[i] != root[i] {
			return false
		}
	}
	return true
}

func containsPath(set [][]topo.NodeID, p []topo.NodeID) bool {
	for _, s := range set {
		if samePath(s, p) {
			return true
		}
	}
	return false
}

// kcand is a Yen candidate path with its cost.
type kcand struct {
	path []topo.NodeID
	cost int64
}

func containsCand(set []kcand, p []topo.NodeID) bool {
	for _, s := range set {
		if samePath(s.path, p) {
			return true
		}
	}
	return false
}

func samePath(a, b []topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessPath(a, b []topo.NodeID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
