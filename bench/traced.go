package main

// The traced run (-trace 1). End-to-end numbers are never taken here:
// this run exists to say where the time of an op goes, layer by layer,
// and what each layer did.

import (
	"fmt"
	"time"
)

// tracer is implemented by every fixture: traced runs one traced pass of
// the workload (with a nil recorder: the same pass, untraced), layers
// adds the fixture's counters and direct layer probes.
type tracer interface {
	traced(rec *recorder) error
	layers(m metricSet)
}

// spanMetric derives one per-layer metric from the spans of one name:
// host time per span (perCall) or per traced pass, in the given unit.
type spanMetric struct {
	metric  string
	span    string
	perCall bool
	unit    time.Duration
}

var spanMetrics = []spanMetric{
	{"event.run_ms", "event.run", false, time.Millisecond},
	{"ospf.converge_weight_ms", "ospf.converge_weight", true, time.Millisecond},
	{"ospf.converge_lie_ms", "ospf.converge_lie", true, time.Millisecond},
	{"netsim.applydiff_ms", "netsim.applydiff", false, time.Millisecond},
	{"netsim.addflow_us", "netsim.addflow", true, time.Microsecond},
	{"video.attach_us", "video.attach", true, time.Microsecond},
	{"controller.handle_ms", "controller.handle", false, time.Millisecond},
	{"controller.context_us", "controller.context", true, time.Microsecond},
	{"controller.propose_ms", "controller.propose", true, time.Millisecond},
	{"controller.select_us", "controller.select", true, time.Microsecond},
	{"fibbing.evaluate_us", "fibbing.evaluate", true, time.Microsecond},
	{"fibbing.augment_us", "fibbing.augment", true, time.Microsecond},
	{"fibbing.reduce_ms", "fibbing.reduce", true, time.Millisecond},
	{"fibbing.verify_us", "fibbing.verify", true, time.Microsecond},
	{"te.minmax_cold_ms", "te.minmax_cold", true, time.Millisecond},
	{"te.minmax_warm_ms", "te.minmax_warm", true, time.Millisecond},
	{"te.loads_us", "te.loads", true, time.Microsecond},
	{"spf.compute_us", "spf.compute", true, time.Microsecond},
	{"spf.incremental_us", "spf.incremental", true, time.Microsecond},
	{"spf.kshortest_us", "spf.kshortest", true, time.Microsecond},
	{"qoe.predict_plan_us", "qoe.predict_plan", true, time.Microsecond},
	{"southbound.apply_us", "southbound.apply", true, time.Microsecond},
}

// runTraced measures one round of the workload's gated shape with
// tracing off (the harness layer's numbers and the per-op counters come
// from it), then alternates untraced and traced passes on the same
// fixture, and reduces the spans to per-layer metrics.
func runTraced(w *workload, seed int64, seconds int) (metricSet, *samples, error) {
	m := make(metricSet, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	passes := scaled(w.traces, seconds)
	s, err := runWorkload(w, seed, scaled(w.ops, seconds), 1, 1, func(fx fixture) error {
		tr, ok := fx.(tracer)
		if !ok {
			return fmt.Errorf("%s: fixture cannot be traced", w.name)
		}
		rec := newRecorder()
		var off, on []float64
		var tracedWall time.Duration
		for i := 0; i < passes; i++ {
			t0 := time.Now()
			if err := tr.traced(nil); err != nil {
				return err
			}
			off = append(off, ms(time.Since(t0)))
			rec.op = i
			t0 = time.Now()
			if err := tr.traced(rec); err != nil {
				return err
			}
			d := time.Since(t0)
			tracedWall += d
			on = append(on, ms(d))
		}

		self, count := byName(rec.spans)
		var selfSum time.Duration
		for _, d := range self {
			selfSum += d
		}
		for _, sm := range spanMetrics {
			n := float64(passes)
			if sm.perCall {
				n = float64(count[sm.span])
			}
			if n > 0 {
				m[sm.metric] = float64(self[sm.span]) / float64(sm.unit) / n
			}
		}
		// From outside, the event loop and the protocol handlers it runs
		// are one span: on igp-churn the convergences are the event loop.
		m["event.run_ms"] += ms(self["ospf.converge_weight"]+self["ospf.converge_lie"]) / float64(passes)
		m["harness.traced_ms"] = median(on)
		m["harness.trace_overhead_pct"] = 100 * (median(on)/median(off) - 1)
		m["harness.span_coverage_pct"] = 100 * float64(selfSum) / float64(tracedWall)
		tr.layers(m)

		layerMs := make(map[string]float64)
		for layer, d := range byLayer(rec.spans) {
			layerMs[layer] = ms(d)
		}
		tf := &traceFile{
			Workload: w.name, Seed: seed, Host: thisHost(),
			TracedWallMs: ms(tracedWall), LayerSelfMs: layerMs,
			SimTimeline: simTimeline(fx), Spans: rec.spans,
		}
		path, err := writeTrace(outDir, tf)
		if err != nil {
			return err
		}
		fmt.Printf("  trace: %d spans over %d passes -> %s\n", len(rec.spans), passes, path)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	ops := float64(s.attempted)
	m["harness.cal_ms_p50"] = median(s.calMs)
	m["harness.op_ms_raw_p50"] = median(s.opRawMs)
	m["harness.setup_raw_s"] = median(s.setupRawS)
	if pct, v, ok := tailPercentile(s.opMs); ok {
		m["harness.op_ms_tail"], m["harness.tail_pct"] = v, float64(pct)
	}
	m["harness.samples"] = ops
	m["harness.cpu_ms_per_op"] = ms(s.cpu) / ops
	m["harness.gc_cycles_per_op"] = float64(s.gcCycles) / ops
	m["harness.gc_pause_ms_per_op"] = ms(s.gcPause) / ops
	m["harness.nproc"] = float64(thisHost().NProc)
	// Simulated outcomes of the gated ops, under the layer that owns them.
	m["controller.react_sim_ms"] = s.outcome.reactMs
	m["video.stall_sim_s"] = s.outcome.stallS
	m["qoe.predicted_stall_s"] = s.outcome.predStallS
	m["te.util_gap"] = s.outcome.utilGap
	m["bfd.failover_sim_ms"] = s.outcome.failoverMs
	m["ospf.converge_sim_ms"] = s.outcome.convergeMs
	if m["fibbing.lies"] == 0 {
		m["fibbing.lies"] = s.outcome.lies
	}
	return m, s, nil
}

// simTimeline is the simulated-time chain of the traced reaction, for
// fixtures that simulate one.
func simTimeline(fx fixture) map[string]float64 {
	var mk simMarks
	switch f := fx.(type) {
	case *loopFixture:
		if len(f.marks) == 0 {
			return nil
		}
		mk = f.marks[0] // the Fig. 2 timeline
	case *crowdFixture:
		mk = f.marks
	default:
		return nil
	}
	at := func(d time.Duration) float64 {
		if d < 0 {
			return -1
		}
		return ms(d)
	}
	return map[string]float64{
		"first_hot_sample": at(mk.firstHot),
		"first_alarm":      at(mk.firstAlarm),
		"first_commit":     at(mk.firstCommit),
		"last_fib_delta":   at(mk.lastDelta),
		"stalls_stop":      at(mk.stallsStop),
	}
}
