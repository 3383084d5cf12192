package ospf

import (
	"math/rand"
	"testing"
	"time"
)

// FuzzHandlePacket drives the wire codec where it faces the network: a
// router of a converged Fig1 domain receives arbitrary bytes from its
// neighbor. Nothing may panic — not the check, not the header-first
// judgement, not the flooding and SPF an accepted LSA sets off — and the
// check/materialise pair must give the verdict, error text and decoded
// values of the one-pass reference decoder (codecAgrees).
func FuzzHandlePacket(f *testing.F) {
	tp, d := startFig1(f)
	a, b := d.Router(tp.MustNode("A")), d.Router(tp.MustNode("B"))
	own, _ := b.db.Get(Key{Type: TypeRouter, AdvRouter: a.id})
	newer := own.Clone()
	newer.Header.Seq++
	newer.RouterLinks = newer.RouterLinks[:1]
	flush := fig1cLies(tp)[0]
	flush.Header.Age = MaxAgeSeconds
	// Seed corpus: one packet of each type — the update as a duplicate, a
	// newer instance, a lie and a flush — and mutants of the encodings the
	// never-panics tests start from.
	for _, p := range []*Packet{
		{Type: PktHello, From: a.id},
		{Type: PktLSUpdate, From: a.id, LSAs: []*LSA{own}},
		{Type: PktLSUpdate, From: a.id, LSAs: []*LSA{newer, fig1cLies(tp)[0]}},
		{Type: PktLSUpdate, From: a.id, LSAs: []*LSA{flush}},
		{Type: PktLSAck, From: a.id, Acks: []Header{own.Header}},
	} {
		f.Add(p.Encode())
	}
	rng := rand.New(rand.NewSource(99))
	lsa, packet := mutationBases()
	for i := 0; i < 32; i++ {
		f.Add(mutate(rng, lsa))
		f.Add(mutate(rng, packet))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		codecAgrees(t, data)
		// A fresh domain per input keeps every crash reproducible from
		// its input alone.
		tp, d := startFig1(t)
		a, b := d.Router(tp.MustNode("A")), d.Router(tp.MustNode("B"))
		b.HandlePacket(a.id, data)
		// Let whatever it set off — acks, floods, the debounced SPF —
		// play out.
		d.Scheduler().RunUntil(d.Scheduler().Now() + 100*time.Millisecond)
	})
}
