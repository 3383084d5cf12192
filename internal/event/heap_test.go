package event

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// The queue the scheduler ran on before its typed heap: container/heap
// over heap.Interface, Swap maintaining each entry's index, Cancel through
// heap.Remove. Kept as the oracle for push/pop/remove in event.go.

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

// TestHeapMatchesContainerHeap drives the scheduler and the container/heap
// reference with the same 100 000 random At/Cancel/Step operations —
// delays drawn from eight instants so same-instant ties are the rule, and
// cancels aimed at fired and already cancelled handles too — and holds
// them to the same fired sequence, clock, Pending() and Cancel results.
// The scheduler's index bookkeeping is checked against the queue as well:
// Cancel trusts it.
func TestHeapMatchesContainerHeap(t *testing.T) {
	s := NewScheduler()
	ref := &refScheduler{}
	rng := rand.New(rand.NewSource(22))
	type pair struct {
		h   Handle
		ref *refEvent
	}
	var issued []pair
	fired := -1
	for op := 0; op < 100000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			id := len(issued)
			at := s.Now() + time.Duration(rng.Intn(8))*time.Millisecond
			issued = append(issued, pair{
				h:   s.At(at, func() { fired = id }),
				ref: ref.at(at, id),
			})
		case r < 7:
			if len(issued) == 0 {
				continue
			}
			p := issued[rng.Intn(len(issued))]
			if got, want := s.Cancel(p.h), ref.cancel(p.ref); got != want {
				t.Fatalf("op %d: Cancel = %v, reference %v", op, got, want)
			}
		default:
			fired = -1
			stepped := s.Step()
			if want := ref.step(); fired != want || stepped != (want >= 0) {
				t.Fatalf("op %d: Step = %v firing %d, reference fired %d", op, stepped, fired, want)
			}
			if s.Now() != ref.now {
				t.Fatalf("op %d: clock %v, reference %v", op, s.Now(), ref.now)
			}
		}
		if s.Pending() != len(ref.queue) {
			t.Fatalf("op %d: Pending() = %d, reference holds %d", op, s.Pending(), len(ref.queue))
		}
		if op%1000 == 0 {
			for i, ev := range s.queue {
				if ev.index != i {
					t.Fatalf("op %d: queue[%d].index = %d", op, i, ev.index)
				}
			}
		}
	}
	for len(ref.queue) > 0 {
		fired = -1
		s.Step()
		if want := ref.step(); fired != want {
			t.Fatalf("drain: fired %d, reference %d", fired, want)
		}
	}
	if s.Step() {
		t.Fatal("scheduler still holds events after the reference drained")
	}
}
