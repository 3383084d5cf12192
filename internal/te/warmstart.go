// Warm-started min-max solves. The planner re-solves the same LP over
// and over — every alarm, every failover, every demand bump — and
// between consecutive solves only the demand volumes
// (right-hand sides) usually change. MinMaxSolver keeps the previous
// optimal basis keyed by the problem's structure and re-enters phase-2
// simplex from it, which typically converges in a handful of pivots
// instead of the full two-phase iteration count. Any failure to reuse
// the basis falls back to a cold solve, so the warm path can only be
// faster, never different: a property test asserts warm and cold reach
// identical objectives and flows within SolverRelTol across the zoo.
package te

import (
	"fmt"
	"sync"

	"fibbing.net/fibbing/internal/topo"
)

// WarmLPStats counts how a MinMaxSolver satisfied its solves.
type WarmLPStats struct {
	// Warm solves re-entered simplex from the previous optimal basis.
	Warm uint64 `json:"warm"`
	// Cold solves ran the full two-phase method from scratch.
	Cold uint64 `json:"cold"`
	// Fallback counts warm attempts that had to restart cold (singular
	// refactorisation, infeasible basic point, or a stalled re-solve).
	// Each such solve is also counted in Cold.
	Fallback uint64 `json:"fallback"`
}

// MinMaxSolver is SolveMinMax with basis reuse across invocations. The
// zero value is ready to use; methods are safe for concurrent callers.
type MinMaxSolver struct {
	mu    sync.Mutex
	key   string
	basis []int
	stats WarmLPStats
}

// NewMinMaxSolver returns an empty solver (first solve is cold).
func NewMinMaxSolver() *MinMaxSolver { return &MinMaxSolver{} }

// Solve computes the same optimum as SolveMinMax, warm-starting from the
// previous solve's basis when the LP structure (links, commodities,
// sinks, capacity presence) is unchanged. Demand-volume and capacity
// *value* changes keep the structure and ride the warm path; anything
// that changes the tableau layout — a failed link, a new prefix, a new
// ingress pattern — misses the key and solves cold.
func (s *MinMaxSolver) Solve(t *topo.Topology, demands []topo.Demand) (*MinMaxResult, error) {
	p, err := buildMinMax(t, demands)
	if err != nil {
		return nil, err
	}
	key := p.bld.StructureKey()

	s.mu.Lock()
	var start []int
	if s.key == key && len(s.basis) > 0 {
		start = append([]int(nil), s.basis...)
	}
	s.mu.Unlock()

	if start != nil {
		if sol, obj, status, basis, ok := p.bld.SolveFromBasis(start); ok && status == Optimal {
			s.mu.Lock()
			s.stats.Warm++
			s.key, s.basis = key, basis
			s.mu.Unlock()
			return p.extract(t, sol, obj), nil
		}
		s.mu.Lock()
		s.stats.Fallback++
		s.mu.Unlock()
	}

	sol, obj, status, basis := p.bld.SolveBasis()
	if status != Optimal {
		return nil, fmt.Errorf("te: min-max LP %v", status)
	}
	s.mu.Lock()
	s.stats.Cold++
	if basis != nil {
		s.key, s.basis = key, basis
	} else {
		// Redundant rows kept an artificial basic: this structure cannot
		// seed warm starts, so forget any stale basis.
		s.key, s.basis = "", nil
	}
	s.mu.Unlock()
	return p.extract(t, sol, obj), nil
}

// Stats returns a snapshot of the solve counters.
func (s *MinMaxSolver) Stats() WarmLPStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
