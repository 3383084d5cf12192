package event

// Ring is a FIFO for what is in flight on a constant-delay channel: the
// deliveries of such a channel fire in the order they were scheduled, so
// the sender pushes what it sent, schedules one pre-built callback per
// item, and the callback pops — no closure per item. It grows to the
// channel's own peak and stays there. The zero Ring is empty.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Init gives an empty ring buf as its first buffer, in place of the four
// items its first Push would allocate: an owner of many rings sizes them
// once and carves their buffers from one slab. len(buf) must be a power
// of two; the ring grows past it as past a buffer of its own.
func (q *Ring[T]) Init(buf []T) {
	if q.n != 0 || len(buf)&(len(buf)-1) != 0 {
		panic("event: Ring.Init on a non-empty ring or with a length that is not a power of two")
	}
	q.buf, q.head = buf, 0
}

// Len returns the number of items held.
func (q *Ring[T]) Len() int { return q.n }

// Push appends v.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Cap returns the number of items the ring holds before it grows.
func (q *Ring[T]) Cap() int { return len(q.buf) }

// Peek returns the oldest item without removing it; the ring must not be
// empty.
func (q *Ring[T]) Peek() T { return q.buf[q.head] }

// At returns the i-th oldest item, 0 <= i < Len, in place: the pointer
// holds until the next Push or Pop.
func (q *Ring[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Pop removes and returns the oldest item; the ring must not be empty.
func (q *Ring[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
