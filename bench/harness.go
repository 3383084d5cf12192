package main

// The run shape. One run of a workload is `rounds` rounds; a round forces
// a GC, builds the fixture from nothing (one setup_s sample), runs one
// untimed warm-up op, then a fixed number of timed ops, and drops the
// fixture. Op counts are fixed per workload and scale only with -seconds,
// so the work — and with it every allocation and simulated figure — is
// the same on every commit. Every timed interval is measured by a
// stopwatch, which also corrects it for the host's speed.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// rounds is how many times a run rebuilds its fixture. The host changes
// speed over seconds to minutes; five separated samples of everything
// keep one slow stretch from owning a run's medians.
const rounds = 5

// outcome is what one op produced, for the output check and for the
// outcome metrics. The digest must be identical for the same op index
// in every round of a run.
type outcome struct {
	digest [32]byte
	// util and lies are the routing state the controller chose: the max
	// link utilisation it leaves (analytic, mean over cells or problems)
	// and the number of lies that realise it.
	util, lies float64
	// Simulated-time and viewer outcomes, where the workload has them;
	// predStallS is the stall time the QoE model predicts for the chosen
	// routing state, stallS what the simulated players then suffered.
	stallS, predStallS, utilGap, reactMs, failoverMs, convergeMs float64
}

// fixture is a built workload instance. op runs one closed-loop
// operation; an error is a failed op. op calls tick wherever it may be
// interrupted for a calibration sample (between the cells of a pass, say):
// the more often, the finer the host-speed correction of its time.
type fixture interface {
	op(tick func()) (outcome, error)
}

// checker is implemented by fixtures with an output check too costly for
// the timed region; the harness calls it untimed after every op.
type checker interface {
	check() error
}

// samples is everything one run measured, before reduction to metrics.
// Times come in pairs: raw wall-clock, and the same interval corrected
// for host speed (see stopwatch).
type samples struct {
	setupS, setupRawS []float64 // per round: seconds per fixture build
	opMs, opRawMs     []float64 // per timed op, in run order
	calMs             []float64 // every calibration-kernel sample, in run order
	rssMB             []float64 // per round: peak resident set
	attempted         int
	failed            int
	firstErr          error
	outcome           outcome // means over the timed ops' outcomes

	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	cpu                 time.Duration
}

// runWorkload executes one run of nRounds rounds, each building the
// fixture setupBuilds times and timing opsPerRound ops. A non-nil hook
// sees each round's fixture after its timed ops, before it is dropped
// (the traced run's way in).
func runWorkload(w *workload, seed int64, opsPerRound, setupBuilds, nRounds int, hook func(fixture) error) (*samples, error) {
	s := &samples{}
	sw := &stopwatch{cals: &s.calMs}
	var reference []outcome
	fail := func(err error) {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
	var sum outcome
	for r := 0; r < nRounds; r++ {
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()

		sw.start()
		var fx fixture
		for k := 0; k < setupBuilds; k++ {
			var err error
			if fx, err = w.build(seed); err != nil {
				return nil, fmt.Errorf("%s: build: %w", w.name, err)
			}
			sw.tick()
		}
		raw, norm := sw.stop()
		s.setupRawS = append(s.setupRawS, raw/1e3/float64(setupBuilds))
		s.setupS = append(s.setupS, norm/1e3/float64(setupBuilds))

		// Warm-up: first-use costs (pools, lazily grown tables) are paid
		// here, as they are once per process for a user, not per op.
		if _, err := fx.op(func() {}); err != nil {
			return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		for i := 0; i < opsPerRound; i++ {
			sw.start()
			out, err := fx.op(sw.tick)
			raw, norm := sw.stop()

			s.attempted++
			s.opRawMs = append(s.opRawMs, raw)
			s.opMs = append(s.opMs, norm)
			if err == nil {
				if c, ok := fx.(checker); ok {
					err = c.check()
				}
			}
			switch {
			case err != nil:
				fail(err)
			case r == 0:
				reference = append(reference, out)
			case out.digest != reference[i].digest:
				fail(fmt.Errorf("%s: round %d op %d produced different output than round 0", w.name, r, i))
			}
			sum.add(out)
		}
		s.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&after)
		s.allocBytes += after.TotalAlloc - before.TotalAlloc
		s.mallocs += after.Mallocs - before.Mallocs
		s.gcCycles += after.NumGC - before.NumGC
		s.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		s.rssMB = append(s.rssMB, rss)
		if hook != nil {
			if err := hook(fx); err != nil {
				return nil, err
			}
		}
	}
	s.outcome = sum.scaled(1 / float64(s.attempted))
	return s, nil
}

func (o *outcome) add(p outcome) {
	o.util += p.util
	o.lies += p.lies
	o.stallS += p.stallS
	o.predStallS += p.predStallS
	o.utilGap += p.utilGap
	o.reactMs += p.reactMs
	o.failoverMs += p.failoverMs
	o.convergeMs += p.convergeMs
}

func (o outcome) scaled(f float64) outcome {
	return outcome{
		util: o.util * f, lies: o.lies * f, stallS: o.stallS * f, predStallS: o.predStallS * f, utilGap: o.utilGap * f,
		reactMs: o.reactMs * f, failoverMs: o.failoverMs * f, convergeMs: o.convergeMs * f,
	}
}

// The calibration kernel: a fixed, allocation-free mix of sorting, hash
// map inserts and lookups, and a dependent pointer chase, sized to about
// a millisecond. It does the same work on every commit, so its time
// measures the host, not the program.
const calN = 1 << 13

var (
	calKeys = make([]uint64, calN)
	calMap  = make(map[uint64]uint32, calN)
	calPerm = make([]uint32, calN)
	calSink uint64
)

// calibrate runs the kernel once and returns its wall-clock in ms.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range calKeys {
		calKeys[i] = next()
	}
	slices.Sort(calKeys)
	clear(calMap)
	for i, k := range calKeys {
		calMap[k] = uint32(i)
	}
	for i := range calPerm {
		calPerm[i] = uint32(i)
	}
	for i := calN - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		calPerm[i], calPerm[j] = calPerm[j], calPerm[i]
	}
	p := uint32(0)
	for i := 0; i < 4*calN; i++ {
		p = calPerm[p]
		calSink += uint64(calMap[calKeys[p]])
	}
	return ms(time.Since(t0))
}

const (
	// calRefMs defines the reference host: one on which the calibration
	// kernel takes exactly this long. Corrected times are what the
	// interval would have lasted there.
	calRefMs = 1.0
	// A stopwatch takes boundarySamples kernel samples where an interval
	// starts and ends and tickSamples at each tick in between, and ticks
	// at most once per tickEvery of measured time.
	boundarySamples = 4
	tickSamples     = 2
	tickEvery       = 20 * time.Millisecond
)

// stopwatch times an interval twice: raw wall-clock, and corrected for
// host speed. The host this runs on changes speed by up to half, per
// CPU, in stretches of a tenth of a second to minutes; wall-clock alone
// does not repeat within a third. So the interval is cut into segments
// at its ticks, the calibration kernel runs on the same thread at every
// cut, and each segment's time is divided by how slow the kernel ran
// around it. The clock is stopped while the kernel runs.
type stopwatch struct {
	cals     *[]float64 // every kernel sample is also appended here
	rawMs    float64
	normMs   float64
	segStart time.Time
	prevCal  float64
}

// sample runs the kernel n times and returns the mean, in ms.
func (sw *stopwatch) sample(n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		c := calibrate()
		*sw.cals = append(*sw.cals, c)
		sum += c
	}
	return sum / float64(n)
}

func (sw *stopwatch) start() {
	sw.rawMs, sw.normMs = 0, 0
	sw.prevCal = sw.sample(boundarySamples)
	sw.segStart = time.Now()
}

// cut closes the running segment with n kernel samples.
func (sw *stopwatch) cut(n int) {
	seg := ms(time.Since(sw.segStart))
	cal := sw.sample(n)
	sw.rawMs += seg
	sw.normMs += seg * calRefMs / ((sw.prevCal + cal) / 2)
	sw.prevCal = cal
}

// tick is what a fixture calls between steps of an op.
func (sw *stopwatch) tick() {
	if time.Since(sw.segStart) < tickEvery {
		return
	}
	sw.cut(tickSamples)
	sw.segStart = time.Now()
}

// stop ends the interval and returns its raw and corrected length in ms.
func (sw *stopwatch) stop() (rawMs, normMs float64) {
	sw.cut(boundarySamples)
	return sw.rawMs, sw.normMs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process, so that each round reports its own peak. Where the
// kernel refuses (it is a write to /proc/self/clear_refs) the mark just
// keeps the whole process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile picks the highest whole percentile that still has at
// least ten samples beyond it, and returns it with its value. With fewer
// than twenty samples there is no such percentile above the median and
// ok is false.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	pct = int(100 * float64(n-10) / float64(n))
	if pct > 99 {
		pct = 99
	}
	if pct <= 50 {
		return 0, 0, false
	}
	return pct, percentile(xs, float64(pct)/100), true
}
