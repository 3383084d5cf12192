package scenarios

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// parallelCapture is everything the determinism property compares between
// worker counts: the ordered OnFIBDelta sequence, the final FIB of every
// router, the whole Report (scrubbed of the parallelism telemetry, the
// only fields the contract allows to differ) and the safety oracle's
// verdict log (instant, prefix, verdict). Batches carries the unscrubbed
// parallel-batch count for the non-vacuity check.
type parallelCapture struct {
	Deltas  string
	FIBs    string
	Report  string
	Safety  string
	Batches uint64
}

// runCaptured runs one cell at the given worker-pool width and snapshots
// the determinism artifacts.
func runCaptured(t *testing.T, spec Spec, workers int) parallelCapture {
	t.Helper()
	failures, err := failureSchedule(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	var (
		sim    *controller.Sim
		safety *safetyWatch
		trace  strings.Builder
	)
	rep, err := RunWatched(spec, true, func(s *controller.Sim) {
		sim = s
		safety = watchSafety(s, failures)
		// No event has fired yet, so the whole run uses this width.
		s.Sched.SetWorkers(workers)
		// Chain-wrap the delta callback: record the diff, then forward it
		// to the data plane as before.
		prev := s.Domain.OnFIBDelta
		s.Domain.OnFIBDelta = func(n topo.NodeID, tb *fib.Table, d *fib.Diff) {
			fmt.Fprintf(&trace, "@%v %s\n", s.Sched.Now(), d)
			if prev != nil {
				prev(n, tb, d)
			}
		}
	})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", spec.Name, workers, err)
	}
	batches := rep.ParallelBatches

	plane := sim.Domain.Plane()
	nodes := make([]topo.NodeID, 0, len(plane.Tables))
	for n := range plane.Tables {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	var fibs strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&fibs, "# %s\n%s", sim.Topo.Name(n), plane.Tables[n].String())
	}
	var verdicts strings.Builder
	for _, c := range safety.checks {
		fmt.Fprintln(&verdicts, c)
	}
	return parallelCapture{
		Deltas:  trace.String(),
		FIBs:    fibs.String(),
		Report:  scrubbedReport(t, rep),
		Safety:  verdicts.String(),
		Batches: batches,
	}
}

// scrubbedReport is a report's JSON without the fields a run may vary in
// by contract: the parallelism telemetry and the strategies' wall time.
// The proposal and win counts, and every cache, LP and component counter,
// stay; they are deterministic by construction.
func scrubbedReport(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
	r.ParallelBatches, r.MaxBatch = 0, 0
	r.StrategyPerf = maps.Clone(rep.StrategyPerf)
	for name, perf := range r.StrategyPerf {
		perf.Nanos = 0
		r.StrategyPerf[name] = perf
	}
	j, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("%s: marshal report: %v", rep.Scenario, err)
	}
	return string(j)
}

// diffLine points at the first divergent line of two multi-line strings,
// so a determinism failure names the exact delta or FIB entry instead of
// dumping two full transcripts.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb string
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return fmt.Sprintf("line %d:\n  seq: %q\n  par: %q", i+1, la, lb)
		}
	}
	return "equal"
}

// TestParallelCoreDeterminism is the zoo-wide determinism property of the
// parallel simulation core: for every matrix cell — and every cell again
// under a different seed — a run with a 4-wide worker pool must be
// byte-identical to the sequential core in (a) the full ordered sequence
// of OnFIBDelta emissions, (b) every router's final FIB, and (c) the
// whole Report except the parallelism telemetry. Because the test sets
// the pool width through the scheduler (not GOMAXPROCS), the parallel
// batch path is exercised even on a single-CPU host, and `go test -race`
// interleaves the worker goroutines over the shared SPF scratch pools and
// flood-buffer freelist.
func TestParallelCoreDeterminism(t *testing.T) {
	specs := MatrixSpecs()
	// A second seed per cell: reseeding shifts the Poisson arrivals and
	// generator randomness so the property is not an artifact of the
	// pinned matrix seeds.
	for _, spec := range MatrixSpecs() {
		spec.Seed += 7777
		spec.Name += "/reseed"
		specs = append(specs, spec)
	}
	// The failover cells ride along: BFD's jittered per-link hellos add
	// one more event source the worker pool must keep in deterministic
	// order.
	specs = append(specs, FailoverSpecs()...)
	// The QoE-scored cells ride along too: the stall predictor's memoised
	// artifacts (QoE hit/miss counters included — store-time accounting,
	// like the plan cache's) and the re-ranking of every candidate by
	// predicted stall must not introduce worker-width dependence. The
	// 100k-viewer scale cell stays out; the small cells carry the property.
	for _, spec := range QoESpecs() {
		if spec.Viewers >= 100_000 {
			continue
		}
		spec.ScoreMode = "qoe"
		spec.Name += "@qoe"
		specs = append(specs, spec)
	}
	// The paper's demo cell rides along, at its own 62 viewers and sliced
	// into 1000.
	demo1k := fig2Cell
	demo1k.Viewers = 1000
	demo1k.Name = "fig1/fig2/1000"
	specs = append(specs, fig2Cell, demo1k)
	var batched uint64
	for _, spec := range specs {
		seq := runCaptured(t, spec, 1)
		par := runCaptured(t, spec, 4)
		batched += par.Batches
		if seq.Deltas != par.Deltas {
			t.Errorf("%s: OnFIBDelta sequence diverged at %s", spec.Name, diffLine(seq.Deltas, par.Deltas))
		}
		if seq.FIBs != par.FIBs {
			t.Errorf("%s: final FIBs diverged at %s", spec.Name, diffLine(seq.FIBs, par.FIBs))
		}
		if seq.Safety != par.Safety {
			t.Errorf("%s: safety verdicts diverged at %s", spec.Name, diffLine(seq.Safety, par.Safety))
		}
		if seq.Report != par.Report {
			t.Errorf("%s: reports diverged:\n seq=%s\n par=%s", spec.Name, seq.Report, par.Report)
		}
		if seq.Batches != 0 {
			t.Errorf("%s: sequential core reported %d parallel batches", spec.Name, seq.Batches)
		}
		if t.Failed() {
			t.Fatalf("%s: parallel core is not byte-identical to sequential", spec.Name)
		}
	}
	// Non-vacuity: the zoo must actually drive multi-event SPF batches
	// through the pool, or the property proves nothing.
	if batched == 0 {
		t.Fatal("no matrix cell executed a parallel batch")
	}
}
