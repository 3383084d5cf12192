package event

import (
	"math/rand"
	"testing"
)

// TestRingFIFO drives the ring against a slice through random pushes,
// peeks and pops, so it grows while its head is anywhere in the buffer;
// At must name every item the slice holds, in order.
func TestRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Ring[[]byte]
	var model [][]byte
	for i := 0; i < 5000; i++ {
		if len(model) == 0 || rng.Intn(100) < 55 {
			p := []byte{byte(i), byte(i >> 8)}
			q.Push(p)
			model = append(model, p)
		} else {
			peeked, got, want := q.Peek(), q.Pop(), model[0]
			model = model[1:]
			if &got[0] != &want[0] || &peeked[0] != &want[0] {
				t.Fatalf("op %d: peeked %v, popped %v, want %v", i, peeked, got, want)
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("op %d: ring holds %d, model %d", i, q.Len(), len(model))
		}
		for j, want := range model {
			if got := *q.At(j); &got[0] != &want[0] {
				t.Fatalf("op %d: At(%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}
