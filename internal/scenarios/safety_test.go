package scenarios

// The safety oracle. Fibbing promises that lies never create forwarding
// loops or blackholes, and fibbing.Verify holds every plan to that promise
// before it commits. The oracle holds what the routers actually installed
// to it, at every instant forwarding can change: after each instant at
// which a router emits a FIB delta, and at each instant the cell's failure
// schedule flips a link. It asks the predicate Verify asks,
// fibbing.CheckDelivery, of every router's installed route for every
// topology prefix, plus two rules a set of route views cannot express: a
// next hop over a link the IGP transport reports failed drops the
// traffic, and so does a router with no route (CheckDelivery skips it as
// a source, but traffic entering there is dropped all the same).
//
// Plain IGP reconvergence has transients of its own (a link failure
// blackholes until the dead interval, a reconverging flood can microloop),
// so a controller arm is judged against its no-controller twin: it fails
// where it loops and the twin does not, or drops where the twin delivers.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/topo"
)

// Non-vacuity floors: the oracle must look at the controller arms'
// installed forwarding at least this often over the matrix (113 checks
// when these were set), the failover cells' fast and slow arms (59) and
// the paper's demo cell (3).
const (
	matrixCheckFloor   = 100
	failoverCheckFloor = 50
	fig2CheckFloor     = 3
)

// safetyCheck is one verdict of the oracle: at an instant, for a prefix,
// empty when the installed forwarding delivers, else why it does not.
type safetyCheck struct {
	At      time.Duration
	Prefix  string
	Verdict string
}

func (c safetyCheck) String() string {
	return fmt.Sprintf("@%v %s: %s", c.At, c.Prefix, c.Verdict)
}

// loops reports whether a verdict is a forwarding loop; any other
// non-empty verdict drops traffic.
func loops(verdict string) bool { return strings.Contains(verdict, "forwarding loop") }

// safetyWatch is the oracle on one run.
type safetyWatch struct {
	sim *controller.Sim
	// instants holds the instant of every check, in order; checks holds
	// one verdict per topology prefix per check.
	instants []time.Duration
	checks   []safetyCheck
	pending  bool // a check is scheduled for the current instant

	// The frontier check's state (frontier_test.go): the point of
	// presence the lies flood from, the lie set and the links the IGP
	// held down at the last check, whether an adjacency changed since,
	// and every commit it judged.
	attach     topo.NodeID
	lies       map[string][]fibbing.Lie
	down       []topo.LinkID
	adjChanged bool
	commits    []frontierCommit
}

// watchSafety arms the oracle on a simulation RunWatched hands its
// watcher; failures is the cell's failure schedule.
func watchSafety(sim *controller.Sim, failures []FailureEvent) *safetyWatch {
	w := &safetyWatch{sim: sim}
	w.watchFrontier()
	prev := sim.Domain.OnFIBDelta
	sim.Domain.OnFIBDelta = func(n topo.NodeID, tb *fib.Table, d *fib.Diff) {
		if prev != nil {
			prev(n, tb, d)
		}
		w.schedule()
	}
	// Registered before the run arms its failure schedule, so the check
	// this schedules runs after the flip at the same instant.
	for _, f := range failures {
		sim.Sched.At(f.At, w.schedule)
	}
	return w
}

// schedule queues one check at the end of the current instant's events,
// unless one is queued already.
func (w *safetyWatch) schedule() {
	if !w.pending {
		w.pending = true
		w.sim.Sched.After(0, w.check)
	}
}

// check judges every topology prefix on the routers' installed FIBs, and
// runs the frontier check on a commit made since the last check.
func (w *safetyWatch) check() {
	w.pending = false
	w.noteCommit()
	sim, tp := w.sim, w.sim.Topo
	now := sim.Sched.Now()
	w.instants = append(w.instants, now)
	for _, p := range tp.Prefixes() {
		views := make(map[topo.NodeID]fibbing.RouteView)
		dropped := ""
		for u := range topo.NodeID(tp.NumNodes()) {
			r := sim.Domain.Router(u)
			if r == nil {
				continue // a host
			}
			route, ok := r.FIB().Lookup(p.Prefix.Addr())
			if !ok {
				if dropped == "" {
					dropped = fmt.Sprintf("%s has no route", tp.Name(u))
				}
				continue
			}
			nhs := make(fibbing.NextHopWeights, len(route.NextHops))
			for _, nh := range route.NextHops {
				nhs[nh.Node] += nh.Weight
				if dropped == "" && sim.Domain.LinkBlocked(nh.Link) {
					dropped = fmt.Sprintf("%s forwards over failed link %s-%s", tp.Name(u), tp.Name(u), tp.Name(nh.Node))
				}
			}
			views[u] = fibbing.RouteView{Local: route.Local, Dist: route.Distance, NextHops: nhs}
		}
		verdict := dropped
		if err := fibbing.CheckDelivery(tp, views); err != nil {
			verdict = err.Error()
		}
		w.checks = append(w.checks, safetyCheck{At: now, Prefix: p.Name, Verdict: verdict})
	}
}

// checkedWithin reports whether a check ran in [from, from+d].
func (w *safetyWatch) checkedWithin(from, d time.Duration) bool {
	i, _ := slices.BinarySearch(w.instants, from)
	return i < len(w.instants) && w.instants[i] <= from+d
}

// judgeTwin applies the twin rule to a controller arm's checks: the
// returned unsafe checks loop where the twin does not, or drop where the
// twin delivers; shared lists the arm's loops the twin has too. The
// twin's verdict at an instant is its last check at or before it, which
// is exact: a run's forwarding changes only at the instants it checks.
func judgeTwin(on, twin *safetyWatch) (unsafe, shared []safetyCheck) {
	last := map[string]string{} // prefix -> the twin's verdict so far
	j := 0
	for _, c := range on.checks {
		for ; j < len(twin.checks) && twin.checks[j].At <= c.At; j++ {
			last[twin.checks[j].Prefix] = twin.checks[j].Verdict
		}
		t := last[c.Prefix]
		switch {
		case loops(c.Verdict) && loops(t):
			shared = append(shared, c)
		case worseThanTwin(c.Verdict, t):
			unsafe = append(unsafe, c)
		}
	}
	return unsafe, shared
}

// worseThanTwin is the twin rule on one prefix at one instant: the
// verdict loops where the twin's does not, or drops where the twin
// delivers.
func worseThanTwin(verdict, twin string) bool {
	return loops(verdict) && !loops(twin) || verdict != "" && twin == ""
}

// requireSafe holds a controller arm to the oracle: no check is unsafe
// under the twin rule but the known ones (each of which must still
// occur), and every decision the arm committed was checked within a
// second (the flood takes milliseconds). Known unsafe checks and loops
// the twin shares are logged. It returns the arm's check count.
func requireSafe(t *testing.T, rep *Report, on, twin *safetyWatch, known ...string) int {
	t.Helper()
	unsafe, shared := judgeTwin(on, twin)
	known = slices.Clone(known)
	for _, c := range unsafe {
		if i := slices.Index(known, c.String()); i >= 0 {
			known = slices.Delete(known, i, i+1)
			t.Logf("%s: known unsafe check %s", rep.Scenario, c)
			continue
		}
		t.Errorf("%s: installed forwarding less safe than the no-controller twin %s", rep.Scenario, c)
	}
	for _, k := range known {
		t.Errorf("%s: the known unsafe check %s no longer occurs", rep.Scenario, k)
	}
	for _, c := range shared {
		t.Logf("%s: the no-controller twin shares %s", rep.Scenario, c)
	}
	for _, d := range rep.Decisions {
		if !on.checkedWithin(d.At, time.Second) {
			t.Errorf("%s: no safety check within 1s of the %s decision at %v", rep.Scenario, d.Strategy, d.At)
		}
	}
	return len(on.instants)
}

// failureSchedule rebuilds a cell's failure schedule the way build does.
func failureSchedule(spec Spec) ([]FailureEvent, error) {
	spec = spec.withDefaults()
	tp, prefix, err := spec.Topo.Build()
	if err != nil {
		return nil, err
	}
	e, err := buildEnv(tp, prefix)
	if err != nil {
		return nil, err
	}
	return buildFailures(spec.Failure, e, spec.Duration)
}

// runWatchedArms is runArms with the safety oracle on every arm.
func runWatchedArms(spec Spec, arms ...arm) ([]*Report, []*safetyWatch, error) {
	reps := make([]*Report, len(arms))
	watches := make([]*safetyWatch, len(arms))
	for i, a := range arms {
		s := spec
		if a.edit != nil {
			a.edit(&s)
		}
		failures, err := failureSchedule(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s run: %w", a.label, err)
		}
		rep, err := RunWatched(s, a.withCtrl, func(sim *controller.Sim) { watches[i] = watchSafety(sim, failures) })
		if err != nil {
			return nil, nil, fmt.Errorf("%s run: %w", a.label, err)
		}
		reps[i] = rep
	}
	return reps, watches, nil
}

// compareSafely is Compare with the safety oracle on both arms: it holds
// the controller arm to the twin rule and returns the arm's check count.
func compareSafely(t *testing.T, spec Spec) (*Comparison, int) {
	t.Helper()
	spec = spec.withDefaults()
	r, w, err := runWatchedArms(spec, arm{"on", nil, true}, arm{"off", nil, false})
	if err != nil {
		t.Fatal(err)
	}
	n := requireSafe(t, r[0], w[0], w[1])
	return &Comparison{Spec: spec, On: r[0], Off: r[1], Violations: Violations(spec, r[0], r[1])}, n
}

// plantedArms runs fig1/surge on both arms under the oracle, with plant
// scheduled at plantAt on the controller arm only; failures are the
// controller arm's extra check instants, as a failure schedule's.
func plantedArms(t *testing.T, plantAt time.Duration, failures []FailureEvent, plant func(*controller.Sim) error) (on, twin *safetyWatch) {
	t.Helper()
	spec, ok := SpecByName("fig1/surge")
	if !ok {
		t.Fatal("fig1/surge not in matrix")
	}
	for _, withCtrl := range []bool{true, false} {
		_, err := RunWatched(spec, withCtrl, func(sim *controller.Sim) {
			if !withCtrl {
				twin = watchSafety(sim, nil)
				return
			}
			on = watchSafety(sim, failures)
			sim.Sched.At(plantAt, func() {
				if err := plant(sim); err != nil {
					t.Errorf("planting at %v: %v", plantAt, err)
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return on, twin
}

// TestSafetyOracleSeesPlantedLoop shows the oracle can fail. On a fig1
// controller arm, two cost-0 lies point B and R2, adjacent on blue's IGP
// path A-B-R2-C, at each other before any viewer arrives: the first check
// after the flood must report a loop on blue, while the no-controller
// twin delivers, and the twin rule must call it unsafe.
func TestSafetyOracleSeesPlantedLoop(t *testing.T) {
	t.Parallel()
	const plantAt = 5 * time.Second
	on, twin := plantedArms(t, plantAt, nil, func(sim *controller.Sim) error {
		b, r2 := sim.Topo.MustNode(topo.Fig1B), sim.Topo.MustNode(topo.Fig1R2)
		_, err := sim.Lies.Apply(topo.Fig1BluePrefixName, []fibbing.Lie{
			{Prefix: topo.Fig1BluePrefix, Attach: b, Via: r2, Cost: 0},
			{Prefix: topo.Fig1BluePrefix, Attach: r2, Via: b, Cost: 0},
		})
		return err
	})
	unsafe, _ := judgeTwin(on, twin)
	i, _ := slices.BinarySearch(on.instants, plantAt)
	if i == len(on.instants) {
		t.Fatalf("no check after the lies were planted at %v", plantAt)
	}
	first := on.instants[i]
	hit := slices.IndexFunc(unsafe, func(c safetyCheck) bool {
		return c.At == first && c.Prefix == topo.Fig1BluePrefixName && loops(c.Verdict)
	})
	if hit < 0 {
		t.Fatalf("the first check after the planted lies (@%v) reports no loop on %s the twin lacks; unsafe: %v",
			first, topo.Fig1BluePrefixName, unsafe)
	}
	t.Logf("planted at %v, flagged %s", plantAt, unsafe[hit])
}

// TestSafetyOracleSeesPlantedDrop shows that a drop the twin does not
// share is still unsafe, now that a router with no route is a drop in
// both arms (which makes a partition's drop a shared one). On a fig1
// controller arm only, B-R2, on blue's IGP path A-B-R2-C, fails before
// any viewer arrives: the check at that instant must report blue dropped
// over the failed link, while the twin, whose link stays up, delivers,
// and the twin rule must call it unsafe.
func TestSafetyOracleSeesPlantedDrop(t *testing.T) {
	t.Parallel()
	const plantAt = 5 * time.Second
	fail := []FailureEvent{{At: plantAt, A: topo.Fig1B, B: topo.Fig1R2}}
	on, twin := plantedArms(t, plantAt, fail, func(sim *controller.Sim) error {
		return sim.SetLinkState(topo.Fig1B, topo.Fig1R2, false)
	})
	unsafe, _ := judgeTwin(on, twin)
	hit := slices.IndexFunc(unsafe, func(c safetyCheck) bool {
		return c.At == plantAt && c.Prefix == topo.Fig1BluePrefixName && c.Verdict != "" && !loops(c.Verdict)
	})
	if hit < 0 {
		t.Fatalf("the check at the planted failure (@%v) reports no drop on %s the twin lacks; unsafe: %v",
			plantAt, topo.Fig1BluePrefixName, unsafe)
	}
	t.Logf("planted at %v, flagged %s", plantAt, unsafe[hit])
}

// TestSafetyOracleIsReadOnly: watching a run changes nothing it reports
// but its event count (the oracle's own checks).
func TestSafetyOracleIsReadOnly(t *testing.T) {
	t.Parallel()
	spec := fig2Cell.withDefaults()
	arms := []arm{{"on", nil, true}, {"off", nil, false}}
	watched, _, err := runWatchedArms(spec, arms...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runArms(spec, arms...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		watched[i].Events, plain[i].Events = 0, 0
		w, p := scrubbedReport(t, watched[i]), scrubbedReport(t, plain[i])
		if w != p {
			t.Errorf("%s controller=%v: the watched report differs:\n watched=%s\n plain=%s",
				spec.Name, plain[i].Controller, w, p)
		}
	}
}

// scrubbedReport is a report's JSON without the strategies' wall time.
// The proposal and win counts, and every cache, LP and component counter,
// stay; they are deterministic by construction.
func scrubbedReport(t *testing.T, rep *Report) string {
	t.Helper()
	r := *rep
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

// drawCells draws n small cells from the whole space — family and size,
// workload, failure schedule, and one seed for both the generator and the
// workload — with a fixed seed, so every run draws the same cells.
func drawCells(seed uint64, n int) []Spec {
	families := []struct {
		family   string
		min, max int // the size range, 0 for the fixed-size families
	}{
		{"ring", 5, 12}, {"waxman", 8, 16}, {"random", 8, 12}, {"grid", 3, 4},
		{"abilene", 0, 0}, {"fattree", 4, 4}, {"fig1", 0, 0},
	}
	workloads := []string{"surge", "flash", "ramp", "dual"}
	failures := []string{"", "flap", "hotlink"}
	rng := rand.New(rand.NewPCG(seed, seed))
	specs := make([]Spec, n)
	for i := range specs {
		f := families[rng.IntN(len(families))]
		size := f.min + rng.IntN(f.max-f.min+1)
		s := Spec{
			Topo:     TopoSpec{Family: f.family, Size: size, Seed: rng.Int64N(1000) + 1},
			Workload: workloads[rng.IntN(len(workloads))],
			Failure:  failures[rng.IntN(len(failures))],
		}
		s.Seed = s.Topo.Seed
		s.Name = f.family // ring7/surge+flap/seed412
		if size > 0 {
			s.Name += strconv.Itoa(size)
		}
		s.Name += "/" + s.Workload
		if s.Failure != "" {
			s.Name += "+" + s.Failure
		}
		s.Name += "/seed" + strconv.FormatInt(s.Seed, 10)
		specs[i] = s.withDefaults()
	}
	return specs
}

// Non-vacuity floors of TestSafetyOverDrawnCells: over its 40 cells the
// controller arms were checked 254 times when these were set, and 33
// cells made at least one decision.
const (
	drawnCheckFloor   = 200
	drawnDecidedFloor = 25
)

// knownUnsafeDraws are the drawn cells' checks the oracle finds unsafe
// today, by cell. Each is a one-millisecond microloop while a pinned
// lie set floods: lp-optimal's commit at 12 s and the failover revert's
// restore of it at 19.001 s, seen by the routers that have the new lies
// and by those that do not yet. A staged commit (ROADMAP item 6, step 2)
// is what removes them; the test fails when one no longer occurs, so the
// list shrinks as that lands.
var knownUnsafeDraws = map[string][]string{
	"waxman14/dual+flap/seed740": {
		"@12.011s sink: fibbing: forwarding loop through w0",
		"@19.011s sink: fibbing: forwarding loop through w0",
	},
}

// drawnRun is one drawn cell run on both arms under the safety oracle.
// A cell build rejects has only rejected set.
type drawnRun struct {
	rejected    error
	on, off     *Report
	watch, twin *safetyWatch // the controller arm's oracle and its twin's
}

// runDrawn runs a drawn cell with and without the controller, each arm
// watched by the safety oracle. build's rejection of the cell is a result,
// not an error: every caller records it, none skips it.
func runDrawn(spec Spec) (drawnRun, error) {
	if _, err := build(spec, false); err != nil {
		return drawnRun{rejected: err}, nil
	}
	r, w, err := runWatchedArms(spec, arm{"on", nil, true}, arm{"off", nil, false})
	if err != nil {
		return drawnRun{}, err
	}
	return drawnRun{on: r[0], off: r[1], watch: w[0], twin: w[1]}, nil
}

// TestSafetyOverDrawnCells runs the safety oracle off the matrix: 40
// small cells drawn from every topology family, workload and failure
// schedule, each run with and without the controller, and the controller
// arm held to the twin rule (requireSafe, knownUnsafeDraws excepted). The
// frontier check must have flagged the commit before each unsafe check,
// the known ones included, and no commit the oracle finds safe.
// Whether a drawn cell stresses the IGP path is left open (many do not,
// by design), so Violations is not asserted; TestGoldenPopulation records
// it over 400 draws. A draw the harness rejects at build is logged and
// counted, never skipped silently.
func TestSafetyOverDrawnCells(t *testing.T) {
	specs := drawCells(50, 40)
	var cells, rejected, checks, decided, commits, falseAlarms atomic.Int64
	t.Cleanup(func() {
		if cells.Load() != int64(len(specs)) {
			return
		}
		t.Logf("%d cells (%d rejected at build), %d safety checks, %d cells decided",
			cells.Load(), rejected.Load(), checks.Load(), decided.Load())
		t.Logf("frontier check: %d commits, %d false alarms (flagged where the oracle saw nothing unsafe)",
			commits.Load(), falseAlarms.Load())
		if n := checks.Load(); n < drawnCheckFloor {
			t.Errorf("%d safety checks over the drawn cells, want >= %d", n, drawnCheckFloor)
		}
		if n := decided.Load(); n < drawnDecidedFloor {
			t.Errorf("%d drawn cells made a decision, want >= %d", n, drawnDecidedFloor)
		}
	})
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			defer cells.Add(1)
			d, err := runDrawn(spec)
			if err != nil {
				t.Fatal(err)
			}
			if d.rejected != nil {
				t.Logf("rejected at build: %v", d.rejected)
				rejected.Add(1)
				return
			}
			checks.Add(int64(requireSafe(t, d.on, d.watch, d.twin, knownUnsafeDraws[spec.Name]...)))
			unsafe, _ := judgeTwin(d.watch, d.twin)
			f := calibrateFrontier(d.watch, unsafe)
			for _, m := range f.missed {
				t.Errorf("the frontier check flagged no commit before the unsafe check %s", m)
			}
			for _, a := range f.falseAlarms {
				t.Errorf("the frontier check flagged a commit the oracle finds safe: %s", a)
			}
			commits.Add(int64(f.commits))
			falseAlarms.Add(int64(len(f.falseAlarms)))
			if len(d.on.Decisions) > 0 {
				decided.Add(1)
			}
		})
	}
}
