package ospf

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

// Decoders face attacker-controlled bytes in a real deployment; they must
// reject garbage with errors, never panic or over-read.

// mutate flips a bit in 1-4 random bytes of a copy of valid and truncates
// it one time in three.
func mutate(rng *rand.Rand, valid []byte) []byte {
	buf := append([]byte(nil), valid...)
	if len(buf) == 0 {
		return buf
	}
	for m := 0; m <= rng.Intn(4); m++ {
		buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
	}
	if rng.Intn(3) == 0 {
		buf = buf[:rng.Intn(len(buf)+1)]
	}
	return buf
}

// mutationBases are the valid encodings the never-panics tests mutate: a
// fake LSA and a two-LSA update.
func mutationBases() (lsa, packet []byte) {
	lsa = (&LSA{
		Header: Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: 1, Seq: 1},
		Prefix: netip.MustParsePrefix("10.66.0.0/16"),
		Metric: 2, AttachedTo: 3, AttachCost: 1, ForwardVia: 6,
	}).Encode()
	l := &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: 2, LSID: 0, Seq: 9},
		Prefix: netip.MustParsePrefix("10.0.0.0/8"),
	}
	packet = (&Packet{Type: PktLSUpdate, From: 2, LSAs: []*LSA{l, l}}).Encode()
	return lsa, packet
}

func TestDecodeLSANeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	valid, _ := mutationBases()
	for i := 0; i < 20000; i++ {
		_, _ = DecodeLSA(mutate(rng, valid)) // must not panic
	}
	// Pure noise as well.
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		_, _ = DecodeLSA(buf)
	}
}

func TestDecodePacketNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, valid := mutationBases()
	for i := 0; i < 20000; i++ {
		_, _ = DecodePacket(mutate(rng, valid))
	}
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(96))
		rng.Read(buf)
		_, _ = DecodePacket(buf)
	}
}

// TestRouterSurvivesGarbagePackets feeds mutated packets into a live
// router: protocol errors must be recorded, the domain must stay healthy.
func TestRouterSurvivesGarbagePackets(t *testing.T) {
	tp, d := startFig1(t)
	b := d.Router(tp.MustNode("B"))
	a := d.Router(tp.MustNode("A"))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		b.HandlePacket(a.ID(), buf)
	}
	if len(d.Errors) == 0 {
		t.Fatalf("garbage produced no protocol errors")
	}
	d.Errors = nil
	// The network still works.
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); got["R2"] != 1 {
		t.Fatalf("routing damaged by garbage: %v", got)
	}
}
