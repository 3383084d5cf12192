package event

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// The queue the scheduler ran on before its typed heap and its
// same-instant chains: container/heap over heap.Interface, one entry per
// event, Swap maintaining each entry's index, Cancel through heap.Remove.
// Kept as the oracle for push/pop/unlink in event.go.

type refEvent struct {
	at    time.Duration
	seq   uint64
	id    int
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refScheduler is the reference's At/Cancel/Step over refHeap.
type refScheduler struct {
	now   time.Duration
	queue refHeap
	seq   uint64
}

func (r *refScheduler) at(t time.Duration, id int) *refEvent {
	ev := &refEvent{at: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refScheduler) cancel(ev *refEvent) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(&r.queue, ev.index)
	return true
}

// step fires the earliest event, returning its id (-1 on an empty queue).
func (r *refScheduler) step() int {
	if len(r.queue) == 0 {
		return -1
	}
	ev := heap.Pop(&r.queue).(*refEvent)
	r.now = ev.at
	return ev.id
}

// checkChains verifies the queue's structure: every head's index is its
// heap slot and no head fires before its parent; prev/next links are
// symmetric; a chain holds one instant in increasing seq; at an instant,
// an older chain (smaller head seq) ends before a newer one starts; the
// tail table holds queued chain tails of distinct instants; and the
// chains hold Pending() events.
func checkChains(t testing.TB, s *Scheduler) {
	t.Helper()
	type span struct{ first, last uint64 }
	chains := map[time.Duration][]span{}
	n := 0
	for i, head := range s.queue {
		if int(head.index) != i || head.prev != nil {
			t.Fatalf("queue[%d]: index %d, has prev %v", i, head.index, head.prev != nil)
		}
		if i > 0 && before(head, s.queue[(i-1)/2]) {
			t.Fatalf("queue[%d] fires before its parent", i)
		}
		last := head
		for ev := head; ev != nil; ev = ev.next {
			n++
			if !ev.queued {
				t.Fatalf("chain at %v holds an unqueued event", head.at)
			}
			if ev != head && ev.index != -1 {
				t.Fatalf("follower seq %d has heap index %d", ev.seq, ev.index)
			}
			if ev.next != nil && (ev.next.prev != ev || ev.next.at != ev.at || ev.next.seq <= ev.seq) {
				t.Fatalf("chain at %v: link after seq %d is asymmetric or out of order", head.at, ev.seq)
			}
			last = ev
		}
		chains[head.at] = append(chains[head.at], span{head.seq, last.seq})
	}
	for at, cs := range chains {
		sort.Slice(cs, func(i, j int) bool { return cs[i].first < cs[j].first })
		for i := 1; i < len(cs); i++ {
			if cs[i-1].last > cs[i].first {
				t.Fatalf("at %v: chain %d..%d interleaves with the newer chain %d..%d",
					at, cs[i-1].first, cs[i-1].last, cs[i].first, cs[i].last)
			}
		}
	}
	seen := map[time.Duration]bool{}
	for i, tail := range s.tails {
		if tail == nil {
			continue
		}
		if !tail.queued || tail.next != nil {
			t.Fatalf("tails[%d] (seq %d) is not a queued chain tail", i, tail.seq)
		}
		head := tail
		for head.prev != nil {
			head = head.prev
		}
		if head.index < 0 || int(head.index) >= len(s.queue) || s.queue[head.index] != head {
			t.Fatalf("tails[%d] (seq %d) belongs to no chain in the heap", i, tail.seq)
		}
		if seen[tail.at] {
			t.Fatalf("tails[%d]: a second open chain at %v", i, tail.at)
		}
		seen[tail.at] = true
	}
	if n != s.Pending() {
		t.Fatalf("chains hold %d events, Pending() = %d", n, s.Pending())
	}
}

// TestHeapMatchesContainerHeap drives the scheduler and the container/heap
// reference with the same 100 000 random At/Cancel/Step operations —
// delays drawn from eight instants, twice the tail table's slots, so
// same-instant ties are the rule and chains get evicted, and cancels
// aimed at fired and already cancelled handles too — and holds them to
// the same fired sequence, clock, Pending() and Cancel results. The
// queue's chain and index bookkeeping is checked as well: Cancel trusts
// it.
func TestHeapMatchesContainerHeap(t *testing.T) {
	w := newTwin(t)
	rng := rand.New(rand.NewSource(22))
	for op := 0; op < 100000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			w.at(time.Duration(rng.Intn(8)) * time.Millisecond)
		case r < 7:
			if len(w.handles) > 0 {
				w.cancel(rng.Intn(len(w.handles)))
			}
		default:
			w.step()
		}
		if op%100 == 0 {
			checkChains(t, w.s)
		}
	}
	w.drain()
}

// FuzzScheduler runs an At/Cancel/Step program read from the input, one
// byte an operation, on the scheduler and the container/heap reference:
// below 128 an At c&7 ms from now (eight instants, so chains are both
// appended to and evicted), below 192 a Cancel of issued handle c&63
// modulo their number (fired and cancelled ones included), else a Step.
// The twins must agree after every operation and through the drain, and
// the chain invariants must hold throughout.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 255, 128, 2, 0, 255, 255})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 129, 255, 130, 0, 255, 255, 255})
	f.Add([]byte{3, 3, 3, 130, 131, 3, 255, 3, 129, 255, 192, 0, 0, 136, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		w := newTwin(t)
		for _, c := range prog {
			switch {
			case c < 128:
				w.at(time.Duration(c&7) * time.Millisecond)
			case c < 192:
				if len(w.handles) > 0 {
					w.cancel(int(c&63) % len(w.handles))
				}
			default:
				w.step()
			}
			checkChains(t, w.s)
		}
		w.drain()
	})
}

// twin drives the scheduler and the reference side by side. Each
// operation fails the test on the first difference in fired event,
// clock, Scheduled or Cancel result, or Pending().
type twin struct {
	t       testing.TB
	s       *Scheduler
	ref     *refScheduler
	handles []Handle
	refs    []*refEvent
	fired   int
	op      int
}

func newTwin(t testing.TB) *twin {
	return &twin{t: t, s: NewScheduler(), ref: &refScheduler{}}
}

// at schedules the next event id d after now on both sides.
func (w *twin) at(d time.Duration) {
	id := len(w.handles)
	at := w.s.Now() + d
	w.handles = append(w.handles, w.s.At(at, func() { w.fired = id }))
	w.refs = append(w.refs, w.ref.at(at, id))
	w.done()
}

// cancel cancels event id i on both sides.
func (w *twin) cancel(i int) {
	if got, want := w.handles[i].Scheduled(), w.refs[i].index >= 0; got != want {
		w.t.Fatalf("op %d: Scheduled(%d) = %v, reference %v", w.op, i, got, want)
	}
	if got, want := w.s.Cancel(w.handles[i]), w.ref.cancel(w.refs[i]); got != want {
		w.t.Fatalf("op %d: Cancel(%d) = %v, reference %v", w.op, i, got, want)
	}
	w.done()
}

// step fires the earliest event on both sides and reports whether there
// was one.
func (w *twin) step() bool {
	w.fired = -1
	stepped := w.s.Step()
	want := w.ref.step()
	if w.fired != want || stepped != (want >= 0) {
		w.t.Fatalf("op %d: Step = %v firing %d, reference fired %d", w.op, stepped, w.fired, want)
	}
	if w.s.Now() != w.ref.now {
		w.t.Fatalf("op %d: clock %v, reference %v", w.op, w.s.Now(), w.ref.now)
	}
	w.done()
	return stepped
}

func (w *twin) done() {
	if w.s.Pending() != len(w.ref.queue) {
		w.t.Fatalf("op %d: Pending() = %d, reference holds %d", w.op, w.s.Pending(), len(w.ref.queue))
	}
	w.op++
}

// drain steps both sides until the reference is empty; the scheduler
// must be empty at the same step.
func (w *twin) drain() {
	for w.step() {
	}
}

// TestSameInstantChains pins the chain edge cases one at a time, each
// against the order the (time, seq) rule dictates, with the chain
// invariants checked after every mutation.
func TestSameInstantChains(t *testing.T) {
	type sched struct {
		*Scheduler
		got []string
	}
	newSched := func() *sched { return &sched{Scheduler: NewScheduler()} }
	at := func(s *sched, when time.Duration, name string) Handle {
		return s.At(when, func() { s.got = append(s.got, name) })
	}
	run := func(t *testing.T, s *sched, want string) {
		t.Helper()
		checkChains(t, s.Scheduler)
		for s.Step() {
			checkChains(t, s.Scheduler)
		}
		if got := strings.Join(s.got, " "); got != want {
			t.Fatalf("fired %q, want %q", got, want)
		}
	}

	t.Run("cancel a head with followers", func(t *testing.T) {
		s := newSched()
		a := at(s, time.Second, "a")
		at(s, time.Second, "b")
		at(s, time.Second, "c")
		if !s.Cancel(a) {
			t.Fatal("Cancel(a) = false")
		}
		if len(s.queue) != 1 || s.queue[0].index != 0 {
			t.Fatalf("the follower did not take the head's slot: %d heads", len(s.queue))
		}
		run(t, s, "b c")
	})
	t.Run("cancel a middle event", func(t *testing.T) {
		s := newSched()
		at(s, time.Second, "a")
		b := at(s, time.Second, "b")
		at(s, time.Second, "c")
		s.Cancel(b)
		run(t, s, "a c")
	})
	t.Run("cancel a tail, then append", func(t *testing.T) {
		s := newSched()
		at(s, time.Second, "a")
		b := at(s, time.Second, "b")
		s.Cancel(b)
		checkChains(t, s.Scheduler)
		at(s, time.Second, "c")
		if len(s.queue) != 1 {
			t.Fatalf("c started a new chain: %d heads", len(s.queue))
		}
		run(t, s, "a c")
	})
	t.Run("cancel a lone event, then push at its instant", func(t *testing.T) {
		s := newSched()
		a := at(s, time.Second, "a")
		s.Cancel(a)
		checkChains(t, s.Scheduler)
		at(s, time.Second, "b")
		run(t, s, "b")
	})
	t.Run("push at Now while the instant drains", func(t *testing.T) {
		s := newSched()
		s.At(time.Second, func() {
			s.got = append(s.got, "a")
			// Appended behind b, which is still queued.
			s.At(s.Now(), func() {
				s.got = append(s.got, "x")
				// The instant's chain has just emptied: y starts a new one.
				at(s, s.Now(), "y")
				checkChains(t, s.Scheduler)
			})
			checkChains(t, s.Scheduler)
		})
		at(s, time.Second, "b")
		at(s, 2*time.Second, "c")
		run(t, s, "a b x y c")
	})
	t.Run("overflow the table, then push to an evicted instant", func(t *testing.T) {
		s := newSched()
		at(s, time.Second, "a1")
		at(s, time.Second, "a2")
		for i := 1; i <= tailSlots; i++ {
			at(s, time.Second+time.Duration(i)*time.Millisecond, fmt.Sprintf("t%d", i))
		}
		for _, tail := range s.tails {
			if tail != nil && tail.at == time.Second {
				t.Fatal("the first chain is still open after the table overflowed")
			}
		}
		at(s, time.Second, "b1")
		at(s, time.Second, "b2")
		if len(s.queue) != tailSlots+2 {
			t.Fatalf("%d heads, want %d: the evicted instant needs a second chain", len(s.queue), tailSlots+2)
		}
		run(t, s, "a1 a2 b1 b2 t1 t2 t3 t4")
	})
}
