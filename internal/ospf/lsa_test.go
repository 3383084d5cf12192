package ospf

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"fibbing.net/fibbing/internal/topo"
)

func TestRouterLSARoundTrip(t *testing.T) {
	l := &LSA{
		Header: Header{Type: TypeRouter, Age: 7, AdvRouter: 3, LSID: 0, Seq: 42},
		RouterLinks: []RouterLink{
			{Neighbor: 1, Metric: 2},
			{Neighbor: 9, Metric: 100},
		},
	}
	enc := l.Encode()
	got, err := DecodeLSA(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Type != TypeRouter || got.Header.AdvRouter != 3 || got.Header.Seq != 42 || got.Header.Age != 7 {
		t.Fatalf("header = %+v", got.Header)
	}
	if len(got.RouterLinks) != 2 || got.RouterLinks[1] != (RouterLink{Neighbor: 9, Metric: 100}) {
		t.Fatalf("links = %+v", got.RouterLinks)
	}
}

func TestPrefixLSARoundTrip(t *testing.T) {
	l := &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: 7, LSID: 1, Seq: 3},
		Prefix: netip.MustParsePrefix("10.66.0.0/16"),
		Metric: 5,
	}
	got, err := DecodeLSA(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Prefix != l.Prefix || got.Metric != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestFakeLSARoundTrip(t *testing.T) {
	l := &LSA{
		Header:     Header{Type: TypeFake, AdvRouter: uint32ID(ControllerIDBase), LSID: 2, Seq: 1},
		Prefix:     netip.MustParsePrefix("10.66.0.0/16"),
		Metric:     2,
		AttachedTo: 2,
		AttachCost: 1,
		ForwardVia: 5,
	}
	got, err := DecodeLSA(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.AttachedTo != 2 || got.AttachCost != 1 || got.ForwardVia != 5 || got.Metric != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Header.AdvRouter != ControllerIDBase {
		t.Fatalf("adv router = %v", got.Header.AdvRouter)
	}
}

func uint32ID(r RouterID) RouterID { return r }

// TestEncodedLengths holds the lengths a domain sizes its packet buffers
// by to the encoder: routerLSALen(n) is a Router LSA with n links, and no
// Prefix or fake LSA, v4 or v6, is longer than maxPrefixLSALen.
func TestEncodedLengths(t *testing.T) {
	for n := range 10 {
		l := &LSA{Header: Header{Type: TypeRouter, AdvRouter: 1, Seq: 1}, RouterLinks: make([]RouterLink, n)}
		if got := len(l.Encode()); got != routerLSALen(n) {
			t.Errorf("Router LSA with %d links: %d bytes, routerLSALen says %d", n, got, routerLSALen(n))
		}
	}
	longest := 0
	for _, typ := range []LSAType{TypePrefix, TypeFake} {
		for _, p := range []string{"10.66.0.0/16", "2001:db8::/32"} {
			l := &LSA{Header: Header{Type: typ, AdvRouter: 1, Seq: 1}, Prefix: netip.MustParsePrefix(p)}
			longest = max(longest, len(l.Encode()))
		}
	}
	if longest != maxPrefixLSALen {
		t.Errorf("the longest Prefix or fake LSA is %d bytes, maxPrefixLSALen says %d", longest, maxPrefixLSALen)
	}
}

func TestIPv6PrefixLSA(t *testing.T) {
	l := &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: 1, LSID: 9, Seq: 1},
		Prefix: netip.MustParsePrefix("2001:db8::/32"),
		Metric: 1,
	}
	got, err := DecodeLSA(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Prefix != l.Prefix {
		t.Fatalf("v6 prefix = %v", got.Prefix)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	l := &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: 7, LSID: 1, Seq: 3},
		Prefix: netip.MustParsePrefix("10.66.0.0/16"),
		Metric: 5,
	}
	enc := l.Encode()

	// Flip a body byte: checksum must catch it.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := DecodeLSA(bad); err == nil {
		t.Fatalf("corrupted body accepted")
	}

	// Truncate.
	if _, err := DecodeLSA(enc[:10]); err == nil {
		t.Fatalf("truncated LSA accepted")
	}
	if _, err := DecodeLSA(enc[:len(enc)-1]); err == nil {
		t.Fatalf("short LSA accepted")
	}

	// Unknown type.
	bad2 := append([]byte(nil), enc...)
	bad2[0] = 99
	if _, err := DecodeLSA(bad2); err == nil {
		t.Fatalf("unknown type accepted")
	}
}

func TestAgeExcludedFromChecksum(t *testing.T) {
	l := &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: 7, LSID: 1, Seq: 3},
		Prefix: netip.MustParsePrefix("10.0.0.0/8"),
	}
	enc := l.Encode()
	// Bump the age in place, as an aging router would.
	enc[2], enc[3] = 0x0E, 0x10 // age 3600
	got, err := DecodeLSA(enc)
	if err != nil {
		t.Fatalf("aged LSA rejected: %v", err)
	}
	if got.Header.Age != MaxAgeSeconds {
		t.Fatalf("age = %d", got.Header.Age)
	}
}

func TestFletcher16(t *testing.T) {
	if Fletcher16(nil) != 0 {
		t.Fatalf("empty checksum != 0")
	}
	a := Fletcher16([]byte{1, 2, 3})
	b := Fletcher16([]byte{1, 2, 4})
	c := Fletcher16([]byte{1, 3, 2}) // order matters for Fletcher
	if a == b || a == c {
		t.Fatalf("checksum collisions on trivial changes: %x %x %x", a, b, c)
	}
}

// refFletcher16 is the parent's loop, verbatim: two reductions per byte.
func refFletcher16(data []byte) uint16 {
	var c0, c1 uint32
	for _, b := range data {
		c0 = (c0 + uint32(b)) % 255
		c1 = (c1 + c0) % 255
	}
	return uint16(c1<<8 | c0)
}

// TestFletcher16MatchesPerByteReduction holds the block-deferred reduction
// to the per-byte loop on every length from 0 to 6000 (past one block
// boundary), on random contents and on all-0xff, the input that drives the
// accumulators highest.
func TestFletcher16MatchesPerByteReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	random := make([]byte, 6000)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xff}, 3*fletcherBlock)
	for n := 0; n <= len(random); n++ {
		if got, want := Fletcher16(random[:n]), refFletcher16(random[:n]); got != want {
			t.Fatalf("random[:%d]: %04x, want %04x", n, got, want)
		}
		if got, want := Fletcher16(ones[:n]), refFletcher16(ones[:n]); got != want {
			t.Fatalf("0xff x %d: %04x, want %04x", n, got, want)
		}
	}
	if got, want := Fletcher16(ones), refFletcher16(ones); got != want {
		t.Fatalf("0xff x %d: %04x, want %04x", len(ones), got, want)
	}
}

func TestHeaderNewer(t *testing.T) {
	base := Header{Seq: 5, Age: 10}
	if !(Header{Seq: 6}).Newer(base) {
		t.Fatalf("higher seq should be newer")
	}
	if (Header{Seq: 4}).Newer(base) {
		t.Fatalf("lower seq should not be newer")
	}
	if (Header{Seq: 5, Age: 20}).Newer(base) {
		t.Fatalf("same seq, non-maxage should not be newer")
	}
	if !(Header{Seq: 5, Age: MaxAgeSeconds}).Newer(base) {
		t.Fatalf("maxage at same seq should supersede (withdrawal)")
	}
	if (Header{Seq: 5, Age: 10}).Newer(Header{Seq: 5, Age: MaxAgeSeconds}) {
		t.Fatalf("young instance should not supersede maxage at same seq")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	lsa := &LSA{
		Header: Header{Type: TypePrefix, AdvRouter: 1, LSID: 0, Seq: 1},
		Prefix: netip.MustParsePrefix("10.0.1.0/24"),
	}
	for _, pkt := range []*Packet{
		{Type: PktHello, From: 3},
		{Type: PktLSUpdate, From: 4, LSAs: []*LSA{lsa, lsa}},
		{Type: PktLSAck, From: 5, Acks: []Header{{Type: TypePrefix, AdvRouter: 1, LSID: 0, Seq: 1}}},
	} {
		got, err := DecodePacket(pkt.Encode())
		if err != nil {
			t.Fatalf("%v: %v", pkt.Type, err)
		}
		if got.Type != pkt.Type || got.From != pkt.From {
			t.Fatalf("header mismatch: %+v", got)
		}
		if len(got.LSAs) != len(pkt.LSAs) || len(got.Acks) != len(pkt.Acks) {
			t.Fatalf("payload mismatch: %+v", got)
		}
	}
}

func TestDecodePacketRejectsGarbage(t *testing.T) {
	if _, err := DecodePacket(nil); err == nil {
		t.Fatalf("nil accepted")
	}
	if _, err := DecodePacket([]byte{9, 0, 0, 0, 1, 0, 0}); err == nil {
		t.Fatalf("unknown type accepted")
	}
	// Update claiming 1 LSA with no payload.
	if _, err := DecodePacket([]byte{byte(PktLSUpdate), 0, 0, 0, 1, 0, 1}); err == nil {
		t.Fatalf("truncated update accepted")
	}
}

// Property: random router LSAs survive an encode/decode round trip.
func TestLSARoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &LSA{Header: Header{
			Type:      TypeRouter,
			Age:       uint16(rng.Intn(3600)),
			AdvRouter: RouterID(rng.Uint32()),
			LSID:      rng.Uint32(),
			Seq:       rng.Uint32(),
		}}
		for i := 0; i < rng.Intn(20); i++ {
			l.RouterLinks = append(l.RouterLinks, RouterLink{
				Neighbor: RouterID(rng.Uint32()),
				Metric:   rng.Uint32(),
			})
		}
		got, err := DecodeLSA(l.Encode())
		if err != nil {
			return false
		}
		if got.Header.AdvRouter != l.Header.AdvRouter || got.Header.Seq != l.Header.Seq {
			return false
		}
		if len(got.RouterLinks) != len(l.RouterLinks) {
			return false
		}
		for i := range l.RouterLinks {
			if got.RouterLinks[i] != l.RouterLinks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRouterIDMapping(t *testing.T) {
	for _, n := range []topo.NodeID{0, 1, 255, 1000} {
		if RouterNode(NodeRouterID(n)) != n {
			t.Fatalf("round trip failed for %d", n)
		}
	}
	if NodeRouterID(0) == 0 {
		t.Fatalf("RouterID 0 must stay invalid")
	}
	if !ControllerIDBase.IsController() || NodeRouterID(5).IsController() {
		t.Fatalf("controller ID classification wrong")
	}
}

func TestLoopbackAddressing(t *testing.T) {
	a, b := Loopback(0), Loopback(1)
	if a == b {
		t.Fatalf("loopbacks collide")
	}
	if !LoopbackPrefix(0).Contains(a) {
		t.Fatalf("loopback prefix does not contain loopback")
	}
	if LoopbackPrefix(0).Bits() != 32 {
		t.Fatalf("loopback prefix not /32")
	}
}

func TestHostAddr(t *testing.T) {
	p := netip.MustParsePrefix("10.66.0.0/16")
	seen := map[netip.Addr]bool{}
	for i := 0; i < 100; i++ {
		a := HostAddr(p, i)
		if !p.Contains(a) {
			t.Fatalf("host addr %v outside prefix", a)
		}
		if seen[a] {
			t.Fatalf("duplicate host addr %v", a)
		}
		seen[a] = true
	}
}

func BenchmarkLSAEncode(b *testing.B) {
	l := &LSA{
		Header:      Header{Type: TypeRouter, AdvRouter: 3, Seq: 42},
		RouterLinks: []RouterLink{{1, 2}, {9, 100}, {4, 7}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Encode()
	}
}

func BenchmarkLSADecode(b *testing.B) {
	l := &LSA{
		Header:      Header{Type: TypeRouter, AdvRouter: 3, Seq: 42},
		RouterLinks: []RouterLink{{1, 2}, {9, 100}, {4, 7}},
	}
	enc := l.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLSA(enc); err != nil {
			b.Fatal(err)
		}
	}
}
