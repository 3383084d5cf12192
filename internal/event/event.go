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
// event, and a commit phase that publishes the result. When Step finds
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
// goroutines exist only inside Step, between fan-out and the
// WaitGroup barrier. It is not safe for concurrent use; simulations drive
// it from one goroutine and expose snapshots to others behind their own
// locks.
type Scheduler struct {
	now time.Duration
	// queue is a binary min-heap of chain heads on (at, seq): each entry
	// leads a FIFO chain of same-instant events (see push/pop/unlink).
	queue []*scheduled
	// tails holds the open chains' tails, at most one per instant; a push
	// at one of their instants is appended without touching the heap.
	tails    [tailSlots]*scheduled
	tailNext int // the slot the next new chain evicts when none is free
	seq      uint64
	ran      uint64
	pending  int

	workers int
	batch   []*scheduled // scratch reused across Step calls
	free    []*scheduled // recycled event structs: At is allocation-free
	stats   ParallelStats
}

// ParallelStats is the scheduler's parallel-execution telemetry.
type ParallelStats struct {
	// Batches counts multi-event parallel batches executed.
	Batches uint64 `json:"batches"`
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
	// prev/next link the event into its instant's FIFO chain; index is
	// its heap slot while it heads the chain and -1 otherwise; queued
	// holds from push until the event fires or is cancelled.
	prev, next *scheduled
	index      int
	queued     bool
}

// tailSlots is the number of open chains. It is more than one because
// pushes alternate between instants: every LSA send schedules its
// delivery (now+delay) and then its retransmit timer (now+1s), so a
// one-slot table would close each chain after one event.
const tailSlots = 4

// NewScheduler returns a scheduler with the clock at zero and a worker
// pool sized by GOMAXPROCS.
func NewScheduler() *Scheduler { return &Scheduler{workers: runtime.GOMAXPROCS(0)} }

// SetWorkers sets the parallel-batch pool width. It is a test seam, not a
// tuning knob: the determinism and allocation tests use it to compare the
// pure sequential core (n = 1: parallel events still run, one at a time,
// in FIFO order) with a wider pool; program code keeps the GOMAXPROCS
// width NewScheduler picks. It must not be called between a batch's
// compute and commit phases (i.e. from callbacks).
func (s *Scheduler) SetWorkers(n int) { s.workers = n }

// Parallel returns a snapshot of the parallel-execution telemetry.
func (s *Scheduler) Parallel() ParallelStats { return s.stats }

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

// Scheduled reports whether the event is still queued: scheduled, not
// yet fired and not cancelled.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.ev.queued && h.ev.seq == h.seq
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op returning false.
// The event is unlinked from its chain immediately, in O(1) unless it was
// its chain's last event, which leaves the heap in O(log n); so
// cancel-heavy workloads (ticker stops, SPF debounce re-arms, retransmit
// acks) don't grow the queue unboundedly.
func (s *Scheduler) Cancel(h Handle) bool {
	if !h.Scheduled() {
		return false
	}
	s.unlink(h.ev)
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
// When that event is parallel-capable it also drains the maximal
// contiguous FIFO run of same-instant parallel events, fanning their
// compute phases out to the worker pool before committing in FIFO order,
// so the observable order is the sequential core's. It returns false when
// the queue is empty.
func (s *Scheduler) Step() bool {
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
	s.stats.MaxBatch = max(s.stats.MaxBatch, n)
	w := min(s.workers, n)
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
		ev.compute = nil // already ran
		s.runOne(ev)
	}
}

// RunUntil executes events until the clock would pass t; the clock is left
// at exactly t. Events scheduled for t itself do fire.
func (s *Scheduler) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// The queue fires events in (time, sequence) order, so same-instant
// events fire FIFO; seq is unique, so the order is total. Events are
// linked into FIFO chains of one instant each, and a binary min-heap
// orders the chain heads by (time, sequence). A push whose instant has an
// open chain (one whose tail is in s.tails) is appended to it; any other
// push starts a new chain, whose head enters the heap and whose tail
// takes a free table slot, or else evicts the slots in turn. A chain
// accepts appends only while it is open, and an instant gets a new chain
// only while none of its chains is open, so every event of an older chain
// at an instant precedes every event of a newer one: heads in heap order,
// then each chain in link order, is exactly the (time, sequence) order.
// Popping or cancelling a head hands its heap slot to its follower
// without sifting: the follower fires at the same instant, before every
// newer chain there, so it is still no later than the slot's children.
// The heap is touched only when a chain empties. The sift loops move a
// hole instead of swapping: the displaced head is written once, at its
// final slot, and every head's index field tracks its slot so an emptied
// chain leaves the heap in O(log n).

// before reports whether chain head a fires ahead of chain head b.
func before(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(ev *scheduled) {
	ev.queued = true
	free := -1
	for i, tail := range &s.tails {
		switch {
		case tail == nil:
			if free < 0 {
				free = i
			}
		case tail.at == ev.at:
			tail.next, ev.prev = ev, tail
			ev.index = -1
			s.tails[i] = ev
			return
		}
	}
	if free < 0 {
		free = s.tailNext
		s.tailNext = (free + 1) % tailSlots
	}
	s.tails[free] = ev
	s.queue = append(s.queue, ev)
	s.up(len(s.queue)-1, ev)
}

// pop removes and returns the earliest event.
func (s *Scheduler) pop() *scheduled {
	top := s.queue[0]
	s.unlink(top)
	return top
}

// unlink takes a queued event out of its chain, and the chain out of the
// heap if that empties it.
func (s *Scheduler) unlink(ev *scheduled) {
	prev, next := ev.prev, ev.next
	ev.prev, ev.next, ev.queued = nil, nil, false
	if next != nil {
		next.prev = prev
	} else {
		// ev was its chain's tail; if the chain is open, prev is its tail
		// now, and an emptied chain frees the slot.
		for i, tail := range &s.tails {
			if tail == ev {
				s.tails[i] = prev
				break
			}
		}
	}
	if prev != nil {
		prev.next = next
		return
	}
	i := ev.index
	ev.index = -1
	if next != nil {
		next.index = i
		s.queue[i] = next
		return
	}
	s.remove(i)
}

// remove deletes the chain head at slot i, refilling the slot with the
// heap's last head sifted to where it belongs.
func (s *Scheduler) remove(i int) {
	q := s.queue
	n := len(q) - 1
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
