// Package event provides the discrete-event simulation kernel shared by the
// IGP flooding simulation and the fluid data-plane simulator.
//
// A Scheduler owns a virtual clock and a time-ordered queue of callbacks.
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps simulations deterministic. Every event runs on the goroutine
// that drives the scheduler, one at a time.
package event

import (
	"fmt"
	"time"
)

// Scheduler is a discrete-event loop driven from one goroutine. It is not
// safe for concurrent use; simulations drive it from one goroutine and
// expose snapshots to others behind their own locks.
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
	free     []*scheduled // recycled event structs: At is allocation-free
	// events is the rest of the chunk At carves a struct from when free
	// is empty, and tickers the rest of NewTicker's: a scheduler that
	// reaches P pending events allocates P/chunk chunks, not P structs.
	events  []scheduled
	tickers []Ticker
}

// ParallelStats is always zero: events run one at a time. It is kept only
// because bench/ reads it until ROADMAP item 1.
type ParallelStats struct {
	Batches  uint64 `json:"batches"`
	MaxBatch int    `json:"max_batch"`
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and cancels nothing.
type Handle struct {
	ev *scheduled
	// seq guards against event-struct reuse: Cancel only acts when the
	// struct still holds the scheduling this handle was issued for.
	seq uint64
}

// Callback is an event body that is not a closure: a pointer to state
// that already exists (an adjacency, a ticker) whose Fire runs the event,
// so scheduling it allocates nothing.
type Callback interface{ Fire() }

// Func is a plain function as a Callback. A func value is one pointer,
// so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

type scheduled struct {
	at  time.Duration
	seq uint64
	fn  Callback
	// prev/next link the event into its instant's FIFO chain; index is
	// its heap slot while it heads the chain and -1 otherwise; queued
	// holds from push until the event fires or is cancelled.
	prev, next *scheduled
	index      int32
	queued     bool
}

// tailSlots is the number of open chains. It is more than one because
// one event's pushes alternate between instants: an OSPF router handling
// an update schedules its ack and flood copies (now + each link's delay)
// and its debounced SPF run (now + 10 ms), and at times an adjacency's
// retransmission timer (now + 1 s); a one-slot table would close a chain
// at every switch. Two slots ran igp-churn and loop-matrix 2-3 % slower
// than four in alternating benchmark pairs.
const tailSlots = 4

// chunk is the number of structs in an event or ticker chunk. A
// cell's scheduler peaks at tens to hundreds of pending events, so a
// small chunk costs a few allocations per hundred events and leaves at
// most chunk-1 structs unused; chunks doubled up to 256 left four times
// as many (measured over the loop-matrix cells).
const chunk = 32

// carve returns the next struct of *slab, refilling an empty slab with a
// new chunk first.
func carve[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, chunk)
	}
	v := &(*slab)[0]
	*slab = (*slab)[1:]
	return v
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Parallel returns the zero ParallelStats. It is kept only because bench/
// reads it until ROADMAP item 1.
func (s *Scheduler) Parallel() ParallelStats { return ParallelStats{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Ran returns the number of events executed so far (telemetry for tests
// and benchmarks).
func (s *Scheduler) Ran() uint64 { return s.ran }

// Pending returns the number of events still queued (scheduled, not yet
// fired, not cancelled). The count is maintained live by At/Cancel/Step,
// so this is O(1) — simulations poll it inside hot loops.
func (s *Scheduler) Pending() int { return s.pending }

// At schedules fn at absolute virtual time t. Scheduling in the past
// (before Now) panics: that is always a simulation bug.
func (s *Scheduler) At(t time.Duration, fn func()) Handle {
	if fn == nil {
		panic("event: nil callback")
	}
	return s.AtCall(t, Func(fn))
}

// AtCall schedules c.Fire at absolute virtual time t, as At does.
func (s *Scheduler) AtCall(t time.Duration, c Callback) Handle {
	if c == nil {
		panic("event: nil callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	var ev *scheduled
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = carve(&s.events)
	}
	ev.at, ev.seq, ev.fn = t, s.seq, c
	s.seq++
	s.push(ev)
	s.pending++
	return Handle{ev: ev, seq: ev.seq}
}

// release returns a fired event struct to the freelist. The seq bump-proof
// is the Handle.seq check: a stale handle never matches a recycled struct.
func (s *Scheduler) release(ev *scheduled) {
	ev.fn = nil
	s.free = append(s.free, ev)
}

// After schedules fn d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic("event: negative delay")
	}
	return s.At(s.now+d, fn)
}

// AfterCall schedules c.Fire d after the current virtual time.
func (s *Scheduler) AfterCall(d time.Duration, c Callback) Handle {
	if d < 0 {
		panic("event: negative delay")
	}
	return s.AtCall(s.now+d, c)
}

// Scheduled reports whether the event is still queued: scheduled, not
// yet fired and not cancelled.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.ev.queued && h.ev.seq == h.seq
}

// When returns the instant a queued event fires; ok is false once it
// fired or was cancelled.
func (h Handle) When() (at time.Duration, ok bool) {
	if !h.Scheduled() {
		return 0, false
	}
	return h.ev.at, true
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op returning false.
// The event is unlinked from its chain immediately, in O(1) unless it was
// its chain's last event, which leaves the heap in O(log n); so
// cancel-heavy workloads (ticker stops, SPF debounce re-arms, the
// retransmission timers of acked-out lists) don't grow the queue
// unboundedly.
func (s *Scheduler) Cancel(h Handle) bool {
	if !h.Scheduled() {
		return false
	}
	s.unlink(h.ev)
	s.pending--
	s.release(h.ev)
	return true
}

// Step runs the earliest pending event, advancing the clock to its time,
// and recycles its struct. It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.pop()
	s.now = ev.at
	s.ran++
	s.pending--
	fn := ev.fn
	s.release(ev)
	fn.Fire()
	return true
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
	s.remove(int(i))
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
		q[i].index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
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
		q[i].index = int32(i)
		i = c
	}
	q[i] = ev
	ev.index = int32(i)
}

// Ticker fires a callback at a fixed period until stopped, mirroring
// time.Ticker inside virtual time (used by the SNMP poller and LSA refresh).
// Tickers are carved from the scheduler's ticker chunks, and each tick is
// the ticker itself as its event's Callback (see tick), so neither
// starting nor re-arming one allocates.
type Ticker struct {
	s      *Scheduler
	period time.Duration
	fn     func()
	handle Handle
	stop   bool
}

// tick is a Ticker as the Callback of its next tick.
type tick Ticker

// Fire runs the tick and re-arms unless the callback stopped the
// ticker; Stop cancels the pending tick, so a stopped ticker never fires.
func (k *tick) Fire() {
	t := (*Ticker)(k)
	t.fn()
	if !t.stop {
		t.arm()
	}
}

// NewTicker starts a ticker whose first tick fires one period from now.
func (s *Scheduler) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("event: non-positive ticker period")
	}
	t := carve(&s.tickers)
	*t = Ticker{s: s, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.handle = t.s.AfterCall(t.period, (*tick)(t))
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	t.s.Cancel(t.handle)
}
