package main

// workload is one benchmark workload: how to build its fixture from a
// seed, and the frozen amount of work a run does.
type workload struct {
	name string
	why  string
	// ops is the number of timed ops per round at the declared
	// run_seconds; builds is how many times a round builds the fixture
	// back to back for one setup_s sample (so that even a fast build is
	// timed over at least half a second).
	ops    int
	builds int
	// traces is the number of traced passes (each paired with an untraced
	// twin) a traced run makes.
	traces int
	build  func(seed int64) (fixture, error)
}

var workloads = []*workload{
	{
		name: "loop-matrix", ops: 2, builds: 1200, traces: 12, build: buildLoop,
		why: "the whole control loop over the 23 cells fiblab -matrix/-failover/-qoe users run: every layer moves it a little",
	},
	{
		name: "plan-cold", ops: 22, builds: 800, traces: 6, build: buildPlan(false, 1),
		why: "12 planning problems, each on an empty artifact cache: planner compute (evaluate, SPF, LP) with the memo layer bypassed",
	},
	{
		name: "plan-warm", ops: 30, builds: 8, traces: 6, build: buildPlan(true, 25),
		why: "the same 12 problems through persistent artifact caches: only memo hits, key encoding and allocation (alarm-train shape)",
	},
	{
		name: "igp-churn", ops: 9, builds: 1, traces: 8, build: buildChurn,
		why: "fat-tree k=8 IGP domain, weight flips and lie injections: event loop, OSPF flooding, SPF and FIB diffs, with no planner or traffic",
	},
	{
		name: "crowd-20k", ops: 4, builds: 12000, traces: 3, build: buildCrowd,
		why: "one surge of ~20000 viewers on a 1 Gbit/s fat-tree: data plane, flow classification and player pool, the planner is idle",
	},
}
