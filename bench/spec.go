package main

// The benchmark's declared surface: every metric by name with its unit,
// direction and — for the end-to-end ones — the bound by which its
// median may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root states the same thing for the
// driver; TestSpecMatchesBenchmarkJSON keeps the two identical.

import (
	"encoding/json"
	"strings"
)

// runSeconds is the declared run length: with -seconds equal to it, a
// run executes exactly the frozen op counts of workloads.go, whose timed
// phases sum to about this many seconds on the reference host. Other
// values scale the op counts linearly.
const runSeconds = 8

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics; every workload reports every one.
// plan_util_mean is an outcome of the program under test (exact for a
// seed). The three times are host-speed-corrected: what the interval
// would have lasted on a host where the calibration kernel takes 1 ms
// (see stopwatch); the raw wall-clock is under the harness layer.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"op_ms_p50", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.12},
	{"allocs_k_per_op", "count", lower, 0.12},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"plan_util_mean", "ratio", lower, 0.10},
}

// perLayer are the traced run's metrics, one line per layer (module).
// A workload that does not exercise a layer reports 0 for it. Names
// ending _sim_ms or _sim_s are simulated time; *_ms, *_us, *_ns are host
// time per call or per op; the rest are counts per op or ratios.
var perLayer = layerMetrics(`
event.events_per_op count lower
event.parallel_batches count higher
event.max_batch count higher
event.run_ms ms lower
ospf.converge_weight_ms ms lower
ospf.converge_lie_ms ms lower
ospf.converge_sim_ms ms lower
ospf.flood_sim_ms ms lower
ospf.spf_full_runs count lower
ospf.spf_incremental_runs count higher
ospf.spf_incremental_ratio ratio higher
ospf.packets_sent count lower
ospf.fib_deltas count lower
spf.compute_us us lower
spf.incremental_us us lower
spf.kshortest_us us lower
fib.diff_routes count lower
fib.trace_us us lower
lpm.lookup_ns ns lower
netsim.applydiff_ms ms lower
netsim.addflow_us us lower
netsim.reshare_incremental count higher
netsim.reshare_full count lower
netsim.reshare_components count lower
netsim.incremental_ratio ratio higher
netsim.aggregates count lower
monitor.polls count lower
monitor.alarms count lower
monitor.detect_sim_ms ms lower
snmp.get_us us lower
controller.handle_ms ms lower
controller.context_us us lower
controller.propose_ms ms lower
controller.select_us us lower
controller.strategy_ms.local-ecmp ms lower
controller.strategy_ms.lp-optimal ms lower
controller.strategy_ms.ksp ms lower
controller.strategy_ms.qoe-greedy ms lower
controller.strategy_ms.withdraw ms lower
controller.plan_cache_hit_ratio ratio higher
controller.plan_cache_misses count lower
controller.qoe_cache_hit_ratio ratio higher
controller.decisions count lower
controller.standby_hits count higher
controller.standby_precomputed count lower
controller.react_sim_ms ms lower
fibbing.evaluate_us us lower
fibbing.augment_us us lower
fibbing.reduce_ms ms lower
fibbing.verify_us us lower
fibbing.lies count lower
te.minmax_cold_ms ms lower
te.minmax_warm_ms ms lower
te.loads_us us lower
te.lp_warm_solves count higher
te.lp_cold_solves count lower
te.lp_fallback_solves count lower
te.util_gap ratio lower
qoe.predict_plan_us us lower
qoe.predict_session_ns ns lower
qoe.predict_err_ratio ratio lower
qoe.predicted_stall_s s lower
southbound.apply_us us lower
southbound.lsas_injected count lower
video.sessions count higher
video.attach_us us lower
video.stall_sim_s s lower
video.recover_sim_ms ms lower
bfd.sessions count higher
bfd.link_downs count lower
bfd.detect_sim_ms ms lower
bfd.failover_sim_ms ms lower
harness.cal_ms_p50 ms lower
harness.op_ms_raw_p50 ms lower
harness.setup_raw_s s lower
harness.op_ms_tail ms lower
harness.tail_pct % higher
harness.samples count higher
harness.cpu_ms_per_op ms lower
harness.gc_cycles_per_op count lower
harness.gc_pause_ms_per_op ms lower
harness.nproc count higher
harness.traced_ms ms lower
harness.trace_overhead_pct % lower
harness.span_coverage_pct % higher
`)

func layerMetrics(table string) []metric {
	var out []metric
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		f := strings.Fields(line)
		out = append(out, metric{Name: f[0], Unit: f[1], Better: f[2]})
	}
	return out
}

// benchmarkJSON renders the declaration in the driver's BENCHMARK.json
// schema.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // only strings and numbers
	}
	return append(b, '\n')
}
