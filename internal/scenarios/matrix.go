package scenarios

// The scenario matrix: the cross product of the topology zoo and the
// workload/failure schedules that every scaling PR regresses against.

// MatrixTopologies is the zoo swept by the matrix: six families spanning
// the paper's gadget, a real ISP backbone, a data-center fabric, the
// minimal two-path ring, and two random WAN models. Seeds are pinned so
// every cell is deterministic.
func MatrixTopologies() []TopoSpec {
	return []TopoSpec{
		{Family: "fig1"},
		{Family: "abilene"},
		{Family: "fattree", Size: 4, Seed: 2},
		{Family: "ring", Size: 9},
		{Family: "waxman", Size: 16, Seed: 13},
		{Family: "random", Size: 12, Seed: 3},
	}
}

// MatrixSpecs returns the full cross product of the zoo and the matrix's
// workload x failure set — a step surge, a Poisson flash crowd, and a ramp
// with a link flap mid-run — one Spec per cell, each with a per-cell seed.
func MatrixSpecs() []Spec {
	schedules := []struct{ workload, failure string }{{"surge", ""}, {"flash", ""}, {"ramp", "flap"}}
	var specs []Spec
	for ti, ts := range MatrixTopologies() {
		for si, sc := range schedules {
			specs = append(specs, Spec{
				Topo:     ts,
				Workload: sc.workload,
				Failure:  sc.failure,
				Seed:     int64(100*ti + si + 1),
			}.withDefaults())
		}
	}
	return specs
}

// SpecByName finds a matrix cell by its derived name (e.g.
// "ring/ramp+flap"); ok is false when no cell matches.
func SpecByName(name string) (Spec, bool) {
	for _, s := range MatrixSpecs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ScaleSpecs returns the large-topology cells unlocked by the delta
// pipeline (incremental SPF + FIB diffs + selective flow re-routing):
// sizes a full-recompute control plane made too slow to sweep. They are
// run by `fiblab -scale`, which reports per-cell wall-clock and
// scheduler-events-executed so slowdowns stay visible; they are not part
// of the CI matrix gate.
func ScaleSpecs() []Spec {
	return named([]Spec{
		{Topo: TopoSpec{Family: "fattree", Size: 8, Seed: 2}, Workload: "surge", Seed: 1},
		{Topo: TopoSpec{Family: "ring", Size: 64}, Workload: "surge", Seed: 2},
		{Topo: TopoSpec{Family: "waxman", Size: 200, Seed: 7}, Workload: "surge", Seed: 3},
		// The viewer-scale cells: the same 1.7x overload sliced into 100k
		// sessions, at production link speeds. They exercise the aggregate
		// traffic plane — cost scales with path-classes
		// (Report.Aggregates), not viewers — and, since the planner
		// numerics went scale-invariant, run at 1 Gbit/s capacity (they
		// were pinned to 100 Mbit/s while the LP stalled above ~1 Gbit/s;
		// that ceiling is gone, see README "Units & numerics").
		{Name: "flashcrowd-100k", Topo: TopoSpec{Family: "fattree", Size: 4, Seed: 2, Capacity: 1e9},
			Workload: "surge", Viewers: 100_000, Seed: 4},
		{Name: "flashcrowd-100k-abilene", Topo: TopoSpec{Family: "abilene", Capacity: 1e9},
			Workload: "surge", Viewers: 100_000, Seed: 5},
		// The capacity-scale cells: the matrix's default 10 Mbit/s cells
		// re-run at Gbit and 10 Gbit uniform capacity. Same relative
		// problem, a thousand times the volume — the planner must make
		// the same decisions (TestPlannerScaleSweep pins the property;
		// these cells prove it end to end through monitoring, planning
		// and the fluid data plane).
		{Name: "abilene-gbit", Topo: TopoSpec{Family: "abilene", Capacity: 1e9},
			Workload: "surge", Seed: 6},
		{Name: "fattree-10gbit", Topo: TopoSpec{Family: "fattree", Size: 4, Seed: 2, Capacity: 10e9},
			Workload: "surge", Seed: 7},
		// The million-viewer tier: thousand-router topologies (Waxman-1000
		// WAN, fat-tree k=16 = 320 switches + 1024 hosts) at 10 Gbit/s with
		// the 1.7x overload sliced into a million sessions. LSA flooding
		// dominates these cells; the aggregate traffic plane keeps the
		// million sessions cheap.
		{Name: "waxman1000-1m", Topo: TopoSpec{Family: "waxman", Size: 1000, Seed: 11, Capacity: 10e9},
			Workload: "surge", Viewers: 1_000_000, Seed: 8},
		{Name: "fattree16-1m", Topo: TopoSpec{Family: "fattree", Size: 16, Seed: 2, Capacity: 10e9},
			Workload: "surge", Viewers: 1_000_000, Seed: 9},
	})
}
