// Package scenarios is the stress harness of the repository: a
// declarative scenario engine that runs the full Fibbing stack — IGP,
// fluid data plane, SNMP monitoring, video players and the controller —
// across a matrix of topologies, demand schedules and failure patterns,
// and checks machine-readable invariants on every cell ("with the
// controller, the settled utilisation approaches the LP optimum", "lies
// touch only the target prefix", "no stalls after convergence").
//
// A Spec names a topology family from the zoo (Fig1, Abilene, fat-tree,
// ring, grid, Waxman, random), a workload (surge, flash crowd, ramp, the
// paper's Figure 2 demo, …), an optional link-failure schedule and a
// duration; Run executes it with or without the controller and produces a
// Report, and RunWatched does the same with a caller hooked onto the
// assembled simulation. Compare runs both and checks Violations between
// them. MatrixSpecs is the cross product the matrix test and cmd/fiblab
// sweep.
package scenarios

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/topo"
)

// TopoSpec selects and parameterises one topology from the zoo.
type TopoSpec struct {
	// Family is one of "fig1", "abilene", "fattree", "ring", "grid",
	// "waxman", "random".
	Family string `json:"family"`
	// Size is the family's size knob: fat-tree arity k, ring length,
	// grid side, node count for waxman/random. Ignored by fig1/abilene.
	Size int `json:"size,omitempty"`
	// Capacity is the uniform core-link capacity in bit/s; 0 picks the
	// family default (10 Mbit/s). Any magnitude works — workloads size
	// themselves relative to path capacity and the planner numerics are
	// scale-invariant, so Gbit and 10 Gbit cells (see ScaleSpecs) run
	// the same relative problem as the Mbit matrix.
	Capacity float64 `json:"capacity,omitempty"`
	// Seed drives every random choice of the generator.
	Seed int64 `json:"seed,omitempty"`
}

// Build constructs the topology and returns it with the name of the
// destination prefix the flash crowd targets.
func (ts TopoSpec) Build() (*topo.Topology, string, error) {
	if ts.Capacity < 0 {
		return nil, "", fmt.Errorf("scenarios: negative capacity %v", ts.Capacity)
	}
	capacity := ts.Capacity
	if capacity == 0 {
		capacity = 10e6
	}
	var (
		tp     *topo.Topology
		prefix string
	)
	// Size is user input (cmd/fiblab flags): validate here so bad values
	// come back as errors instead of generator panics.
	switch ts.Family {
	case "fattree":
		if ts.Size != 0 && (ts.Size < 2 || ts.Size%2 != 0) {
			return nil, "", fmt.Errorf("scenarios: fat-tree arity %d must be even and >= 2", ts.Size)
		}
	case "ring":
		if ts.Size != 0 && ts.Size < 3 {
			return nil, "", fmt.Errorf("scenarios: ring size %d < 3", ts.Size)
		}
	case "grid":
		if ts.Size != 0 && ts.Size < 2 {
			return nil, "", fmt.Errorf("scenarios: grid side %d < 2", ts.Size)
		}
	case "waxman", "random":
		if ts.Size != 0 && ts.Size < 4 {
			return nil, "", fmt.Errorf("scenarios: %s size %d < 4", ts.Family, ts.Size)
		}
	default:
		if ts.Size < 0 {
			return nil, "", fmt.Errorf("scenarios: negative size %d", ts.Size)
		}
	}
	switch ts.Family {
	case "fig1":
		tp = topo.Fig1(topo.Fig1Opts{LinkCapacity: ts.Capacity})
		prefix = topo.Fig1BluePrefixName
	case "abilene":
		tp = topo.Abilene(capacity, time.Millisecond)
		prefix = "cdn-east"
	case "fattree":
		k := ts.Size
		if k == 0 {
			k = 4
		}
		// Weight jitter breaks the fabric's perfect ECMP symmetry so the
		// IGP concentrates traffic and the controller has work to do.
		tp = topo.FatTree(topo.FatTreeOpts{K: k, Capacity: capacity, MaxWeight: 3, Seed: ts.Seed})
		prefix = topo.FatTreePrefixName
	case "ring":
		n := ts.Size
		if n == 0 {
			n = 9
		}
		tp = topo.Ring(topo.RingOpts{N: n, Capacity: capacity})
		prefix = topo.RingPrefixName
	case "grid":
		n := ts.Size
		if n == 0 {
			n = 3
		}
		tp = topo.Grid(n, n, capacity)
		prefix = "corner"
	case "waxman":
		n := ts.Size
		if n == 0 {
			n = 16
		}
		tp = topo.Waxman(topo.WaxmanOpts{Nodes: n, Capacity: capacity, MaxWeight: 5, Seed: ts.Seed})
		prefix = topo.WaxmanPrefixName
	case "random":
		n := ts.Size
		if n == 0 {
			n = 12
		}
		tp = topo.RandomConnected(topo.RandomOpts{
			Nodes: n, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: capacity, Seed: ts.Seed,
		})
		prefix = "d0"
	default:
		return nil, "", fmt.Errorf("scenarios: unknown topology family %q", ts.Family)
	}
	if err := tp.Validate(); err != nil {
		return nil, "", fmt.Errorf("scenarios: %s: %w", ts.Family, err)
	}
	if _, ok := tp.PrefixByName(prefix); !ok {
		return nil, "", fmt.Errorf("scenarios: %s: missing prefix %q", ts.Family, prefix)
	}
	return tp, prefix, nil
}

// FailureEvent is one link state change in a scenario.
type FailureEvent struct {
	At time.Duration `json:"at"`
	// A and B name the link's endpoints; filled by the schedule builder.
	A  string `json:"a,omitempty"`
	B  string `json:"b,omitempty"`
	Up bool   `json:"up"`
}

// Spec is one declarative scenario: a topology, a workload, an optional
// failure schedule and a duration.
type Spec struct {
	Name string   `json:"name"`
	Topo TopoSpec `json:"topo"`
	// Workload is one of "surge", "flash", "ramp", "dual", "steady",
	// "skew" (a thin crowd and a fat crowd with very different
	// per-session rates — the QoE cells' schedule) or
	// "fig2" (the paper's demo timeline, flashcrowd.Fig2Schedule; fig1
	// topology only, and its last wave at 35 s needs a longer Duration).
	Workload string `json:"workload"`
	// Failure is "" (none), "hotlink" (fail the primary ingress's
	// shortest-path first hop mid-run), "flap" (fail then heal it) or
	// "cascade" (fail it, then 4 s later fail the backup path's first
	// hop too — two correlated failures).
	Failure string `json:"failure,omitempty"`
	// Duration is the virtual run length (default 30 s).
	Duration time.Duration `json:"duration,omitempty"`
	// Seed perturbs workload randomness (Poisson arrivals).
	Seed int64 `json:"seed,omitempty"`
	// Viewers scales the crowd to an explicit session count: the total
	// demand stays ~1.7x the primary path's bottleneck capacity, sliced
	// into equal-rate sessions (0 keeps the default ~42-session sizing).
	// The surge workload honours the count exactly, and so does fig2,
	// slicing the demo's own 31 Mbit/s instead; flash/ramp/dual derive
	// their per-wave counts from capacity fractions and land near it.
	// The flashcrowd-100k scale cells use it to push a hundred
	// thousand viewers through the aggregate traffic plane at 1 Gbit/s
	// link capacity.
	Viewers int `json:"viewers,omitempty"`
	// ScoreMode has no effect on the run: the planner has one selection
	// rule. Report.ScoreMode echoes it.
	//
	// Deprecated: no effect. Kept only because bench/ reads it until ROADMAP item 1.
	ScoreMode string `json:"score_mode,omitempty"`
	// BFD attaches per-link liveness sessions (default 50 ms hellos,
	// detect multiplier 3): link failures reach the controller in
	// milliseconds instead of at SNMP-poll timescale.
	BFD bool `json:"bfd,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Duration <= 0 {
		s.Duration = 30 * time.Second
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s/%s", s.Topo.Family, s.Workload)
		if s.Failure != "" {
			s.Name += "+" + s.Failure
		}
		if s.BFD {
			s.Name += "+bfd"
		}
	}
	return s
}

// named fills in every spec's defaults, the derived name among them.
func named(specs []Spec) []Spec {
	for i := range specs {
		specs[i] = specs[i].withDefaults()
	}
	return specs
}

// settleStart is the instant after which the network is expected to have
// converged: the last quarter of the run, but at least 8 s of window.
func (s Spec) settleStart() time.Duration {
	w := s.Duration / 4
	if w < 8*time.Second {
		w = 8 * time.Second
	}
	if w >= s.Duration {
		w = s.Duration / 2
	}
	return s.Duration - w
}
