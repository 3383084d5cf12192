// Package event provides the discrete-event simulation kernel shared by the
// IGP flooding simulation and the fluid data-plane simulator.
//
// A Scheduler owns a virtual clock and a time-ordered queue of callbacks.
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps simulations deterministic.
//
// # Parallel batches
//
// Most events are opaque closures and must run one at a time. Events
// scheduled with AtParallel/AfterParallel instead declare two phases: a
// compute phase that only reads shared state and writes state owned by the
// event, and a commit phase that publishes the result. When StepBatch finds
// a contiguous run of such events at the head instant it fans the compute
// phases out to a worker pool and then runs the commit phases sequentially
// in FIFO order — exactly the order the sequential core would have used, so
// the output is byte-identical regardless of worker count.
//
// The independence contract for same-batch parallel events: a compute phase
// must not write state read by another compute phase, must not touch the
// scheduler (At/After/Cancel), and a commit phase must not cancel another
// event in the same batch. Commits may schedule freely.
package event

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is a discrete-event loop driven from one goroutine; worker
// goroutines exist only inside StepBatch, between fan-out and the
// WaitGroup barrier. It is not safe for concurrent use; simulations drive
// it from one goroutine and expose snapshots to others behind their own
// locks.
type Scheduler struct {
	now     time.Duration
	queue   []*scheduled // binary min-heap on (at, seq); see push/pop/remove
	seq     uint64
	ran     uint64
	pending int

	workers int
	batch   []*scheduled // scratch reused across StepBatch calls
	free    []*scheduled // recycled event structs: At is allocation-free
	stats   ParallelStats
}

// ParallelStats is the scheduler's parallel-execution telemetry.
type ParallelStats struct {
	// Workers is the configured pool width (1 = sequential core).
	Workers int `json:"workers"`
	// Batches counts multi-event parallel batches executed.
	Batches uint64 `json:"batches"`
	// BatchedEvents counts events that ran inside those batches.
	BatchedEvents uint64 `json:"batched_events"`
	// SoloParallel counts parallel-capable events that ran alone (no
	// same-instant sibling to batch with).
	SoloParallel uint64 `json:"solo_parallel"`
	// MaxBatch is the largest batch seen.
	MaxBatch int `json:"max_batch"`
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and cancels nothing.
type Handle struct {
	ev *scheduled
	// seq guards against event-struct reuse: Cancel only acts when the
	// struct still holds the scheduling this handle was issued for.
	seq uint64
}

type scheduled struct {
	at      time.Duration
	seq     uint64
	fn      func() // the event body; for parallel events, the commit phase
	compute func() // non-nil marks a parallel-capable event
	index   int
}

// NewScheduler returns a scheduler with the clock at zero and a worker
// pool sized by GOMAXPROCS.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	s.SetWorkers(0)
	return s
}

// SetWorkers sets the parallel-batch pool width. n <= 0 means GOMAXPROCS;
// 1 selects the pure sequential core (parallel events still run, one at a
// time, in FIFO order). Changing the width mid-run is allowed but not
// between a batch's compute and commit phases (i.e. not from callbacks).
func (s *Scheduler) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers = n
}

// Workers returns the configured pool width.
func (s *Scheduler) Workers() int { return s.workers }

// Parallel returns a snapshot of the parallel-execution telemetry.
func (s *Scheduler) Parallel() ParallelStats {
	st := s.stats
	st.Workers = s.workers
	return st
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Ran returns the number of events executed so far (telemetry for tests
// and benchmarks). Events run in a parallel batch count once each, so the
// total matches the sequential core exactly.
func (s *Scheduler) Ran() uint64 { return s.ran }

// Pending returns the number of events still queued (scheduled, not yet
// fired, not cancelled). The count is maintained live by At/Cancel/Step,
// so this is O(1) — simulations poll it inside hot loops.
func (s *Scheduler) Pending() int { return s.pending }

func (s *Scheduler) newEvent(t time.Duration, compute, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	var ev *scheduled
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &scheduled{}
	}
	ev.at, ev.seq, ev.fn, ev.compute = t, s.seq, fn, compute
	s.seq++
	s.push(ev)
	s.pending++
	return Handle{ev: ev, seq: ev.seq}
}

// release returns a fired event struct to the freelist. The seq bump-proof
// is the Handle.seq check: a stale handle never matches a recycled struct.
func (s *Scheduler) release(ev *scheduled) {
	ev.fn, ev.compute = nil, nil
	ev.index = -1
	s.free = append(s.free, ev)
}

// At schedules fn at absolute virtual time t. Scheduling in the past
// (before Now) panics: that is always a simulation bug.
func (s *Scheduler) At(t time.Duration, fn func()) Handle {
	if fn == nil {
		panic("event: nil callback")
	}
	return s.newEvent(t, nil, fn)
}

// After schedules fn d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic("event: negative delay")
	}
	return s.At(s.now+d, fn)
}

// AtParallel schedules a two-phase event at absolute time t: compute may
// run concurrently with other same-instant parallel events' computes (see
// the package comment for the independence contract), then commit runs on
// the scheduler goroutine in FIFO order. commit may be nil.
func (s *Scheduler) AtParallel(t time.Duration, compute, commit func()) Handle {
	if compute == nil {
		panic("event: nil compute phase")
	}
	return s.newEvent(t, compute, commit)
}

// AfterParallel schedules a two-phase parallel event d after now.
func (s *Scheduler) AfterParallel(d time.Duration, compute, commit func()) Handle {
	if d < 0 {
		panic("event: negative delay")
	}
	return s.AtParallel(s.now+d, compute, commit)
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op returning false.
// The entry is removed from the heap immediately, so cancel-heavy
// workloads (ticker stops, SPF debounce re-arms, retransmit acks) don't
// grow the queue unboundedly.
func (s *Scheduler) Cancel(h Handle) bool {
	if h.ev == nil || h.ev.index < 0 || h.ev.seq != h.seq {
		return false
	}
	s.remove(h.ev.index)
	s.pending--
	s.release(h.ev)
	return true
}

// runOne executes a single event sequentially (compute then commit for
// parallel events) and recycles its struct.
func (s *Scheduler) runOne(ev *scheduled) {
	s.ran++
	s.pending--
	compute, fn := ev.compute, ev.fn
	s.release(ev)
	if compute != nil {
		compute()
	}
	if fn != nil {
		fn()
	}
}

// Step runs the earliest pending event, advancing the clock to its time.
// It returns false when the queue is empty. Parallel events run both
// phases inline, preserving the sequential core's exact semantics.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.at
	s.runOne(ev)
	return true
}

// StepBatch runs the earliest pending event like Step, but when that event
// is parallel-capable it also drains the maximal contiguous FIFO run of
// same-instant parallel events, fanning their compute phases out to the
// worker pool before committing in FIFO order. With Workers() == 1 it is
// exactly Step. Returns false when the queue is empty.
func (s *Scheduler) StepBatch() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.at
	if ev.compute == nil || s.workers <= 1 {
		s.runOne(ev)
		return true
	}
	// Collect the batch: same instant, parallel, with no non-parallel
	// event interleaved in FIFO order (the heap head is always the next
	// FIFO event, so stopping at the first mismatch preserves ordering).
	batch := append(s.batch[:0], ev)
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at != ev.at || next.compute == nil {
			break
		}
		batch = append(batch, s.pop())
	}
	s.batch = batch[:0] // retain scratch capacity, drop references below
	if len(batch) == 1 {
		s.stats.SoloParallel++
		s.runOne(ev)
		return true
	}
	s.runBatch(batch)
	for i := range batch {
		batch[i] = nil
	}
	return true
}

// runBatch fans compute phases out to min(workers, len(batch)) goroutines
// coordinated by a WaitGroup and an atomic cursor, then commits in FIFO
// order on the scheduler goroutine. A panicking compute is re-panicked
// here after the pool drains, so the failure surfaces on the driving
// goroutine like any sequential event panic.
func (s *Scheduler) runBatch(batch []*scheduled) {
	n := len(batch)
	s.stats.Batches++
	s.stats.BatchedEvents += uint64(n)
	if n > s.stats.MaxBatch {
		s.stats.MaxBatch = n
	}
	w := s.workers
	if w > n {
		w = n
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	panics := make([]any, w)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(slot int) {
			defer wg.Done()
			for {
				j := cursor.Add(1) - 1
				if j >= int64(n) {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil && panics[slot] == nil {
							panics[slot] = p
						}
					}()
					batch[j].compute()
				}()
			}
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, ev := range batch {
		s.ran++
		s.pending--
		fn := ev.fn
		s.release(ev)
		if fn != nil {
			fn()
		}
	}
}

// RunUntil executes events until the clock would pass t; the clock is left
// at exactly t. Events scheduled for t itself do fire.
func (s *Scheduler) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.StepBatch()
	}
	if s.now < t {
		s.now = t
	}
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.StepBatch() {
	}
}

// The queue is a binary min-heap over []*scheduled, ordered by (time,
// sequence) so same-instant events fire FIFO. seq is unique, so the order
// is total and the pop sequence does not depend on the heap's internal
// layout. The sift loops move a hole instead of swapping: the displaced
// event is written once, at its final slot, and every event's index field
// tracks its slot so Cancel can remove it in O(log n).

// before reports whether a fires ahead of b.
func before(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(ev *scheduled) {
	s.queue = append(s.queue, ev)
	s.up(len(s.queue)-1, ev)
}

// pop removes and returns the earliest event.
func (s *Scheduler) pop() *scheduled {
	top := s.queue[0]
	s.remove(0)
	return top
}

// remove deletes the event at slot i, refilling the slot with the heap's
// last event sifted to where it belongs.
func (s *Scheduler) remove(i int) {
	q := s.queue
	n := len(q) - 1
	q[i].index = -1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if i == n {
		return
	}
	if i > 0 && before(last, q[(i-1)/2]) {
		s.up(i, last)
	} else {
		s.down(i, last)
	}
}

// up places ev at the hole i or above it, pulling later parents down.
func (s *Scheduler) up(i int, ev *scheduled) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev at the hole i or below it, pulling earlier children up.
func (s *Scheduler) down(i int, ev *scheduled) {
	q := s.queue
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && before(q[c+1], q[c]) {
			c++
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
}

// Ticker fires a callback at a fixed period until stopped, mirroring
// time.Ticker inside virtual time (used by the SNMP poller and LSA refresh).
type Ticker struct {
	s      *Scheduler
	period time.Duration
	fn     func()
	tick   func() // built once; re-arming allocates no closures
	handle Handle
	stop   bool
}

// NewTicker starts a ticker whose first tick fires one period from now.
func (s *Scheduler) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("event: non-positive ticker period")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.tick = func() {
		if t.stop {
			return
		}
		t.fn()
		if !t.stop {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.handle = t.s.After(t.period, t.tick)
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	t.s.Cancel(t.handle)
}
