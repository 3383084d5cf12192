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

// TestRingInit carves two rings' first buffers from one slab: each
// stays FIFO as it grows past its buffer, and neither writes into the
// other's part of the slab. Init takes only an empty ring and a length
// that is a power of two.
func TestRingInit(t *testing.T) {
	slab := make([]int, 8)
	var a, b Ring[int]
	a.Init(slab[0:4:4])
	b.Init(slab[4:8:8])
	for i := range 4 {
		b.Push(100 + i)
	}
	for i := range 11 {
		a.Push(i)
	}
	if a.Cap() != 16 || b.Cap() != 4 {
		t.Fatalf("caps %d and %d, want 16 and 4", a.Cap(), b.Cap())
	}
	for i := range 11 {
		if got := a.Pop(); got != i {
			t.Fatalf("a popped %d, want %d", got, i)
		}
	}
	for i := range 4 {
		if got := b.Pop(); got != 100+i {
			t.Fatalf("b popped %d, want %d", got, 100+i)
		}
	}
	for name, init := range map[string]func(){
		"length 3":       func() { var q Ring[int]; q.Init(make([]int, 3)) },
		"non-empty ring": func() { var q Ring[int]; q.Push(1); q.Init(make([]int, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Init with %s: want panic", name)
				}
			}()
			init()
		}()
	}
}
