package ospf

// The parent's one-pass decoder, kept verbatim as the oracle for the
// check/materialise split in lsa.go (only the ref prefix on the names is
// new): DecodeLSA, decodePrefix and DecodePacket exactly as they were when
// every reception built a Packet, an []*LSA and an LSA before looking at
// it. TestCodecMatchesReference and FuzzHandlePacket hold the new codec to
// the same verdict, the same error text and the same decoded values.
//
// Below them, the flooded start: Domain.Start's body from when every
// router flooded its LSAs at boot, kept verbatim as refFloodedStart
// (only the name and the receiver made a parameter are new), with the
// originatePrefix it called. TestSyncedStartMatchesFloodedStart and
// FuzzSyncedStart hold the synced Start to it, and the tests whose subject
// is the boot flood itself — convergence under loss, one retransmission
// timer per adjacency, the recycled packet buffers — run on it.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

func refDecodeLSA(buf []byte) (*LSA, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("ospf: LSA truncated (%d bytes)", len(buf))
	}
	l := &LSA{}
	l.Header.Type = LSAType(buf[0])
	flags := buf[1]
	l.Header.Age = binary.BigEndian.Uint16(buf[2:])
	l.Header.AdvRouter = RouterID(binary.BigEndian.Uint32(buf[4:]))
	l.Header.LSID = binary.BigEndian.Uint32(buf[8:])
	l.Header.Seq = binary.BigEndian.Uint32(buf[12:])
	length := int(binary.BigEndian.Uint16(buf[16:]))
	l.Header.Checksum = binary.BigEndian.Uint16(buf[18:])
	if length != len(buf) {
		return nil, fmt.Errorf("ospf: LSA length field %d != buffer %d", length, len(buf))
	}
	body := buf[headerLen:]
	if got := refFletcher16(body); got != l.Header.Checksum {
		return nil, fmt.Errorf("ospf: LSA checksum mismatch (got %04x, want %04x)", got, l.Header.Checksum)
	}
	addrLen := 4
	if flags&flagV6 != 0 {
		addrLen = 16
	}
	switch l.Header.Type {
	case TypeRouter:
		if len(body) < 2 {
			return nil, fmt.Errorf("ospf: router LSA body truncated")
		}
		n := int(binary.BigEndian.Uint16(body))
		if len(body) != 2+8*n {
			return nil, fmt.Errorf("ospf: router LSA body size %d for %d links", len(body), n)
		}
		l.RouterLinks = make([]RouterLink, n)
		for i := 0; i < n; i++ {
			off := 2 + 8*i
			l.RouterLinks[i] = RouterLink{
				Neighbor: RouterID(binary.BigEndian.Uint32(body[off:])),
				Metric:   binary.BigEndian.Uint32(body[off+4:]),
			}
		}
	case TypePrefix:
		if len(body) != addrLen+5 {
			return nil, fmt.Errorf("ospf: prefix LSA body size %d", len(body))
		}
		p, err := refDecodePrefix(body, addrLen)
		if err != nil {
			return nil, err
		}
		l.Prefix = p
		l.Metric = binary.BigEndian.Uint32(body[addrLen+1:])
	case TypeFake:
		if len(body) != addrLen+5+12 {
			return nil, fmt.Errorf("ospf: fake LSA body size %d", len(body))
		}
		p, err := refDecodePrefix(body, addrLen)
		if err != nil {
			return nil, err
		}
		l.Prefix = p
		off := addrLen + 1
		l.Metric = binary.BigEndian.Uint32(body[off:])
		l.AttachedTo = RouterID(binary.BigEndian.Uint32(body[off+4:]))
		l.AttachCost = binary.BigEndian.Uint32(body[off+8:])
		l.ForwardVia = RouterID(binary.BigEndian.Uint32(body[off+12:]))
	default:
		return nil, fmt.Errorf("ospf: unknown LSA type %d", buf[0])
	}
	return l, nil
}

func refDecodePrefix(body []byte, addrLen int) (netip.Prefix, error) {
	addr, ok := netip.AddrFromSlice(body[:addrLen])
	if !ok {
		return netip.Prefix{}, fmt.Errorf("ospf: bad prefix address")
	}
	bits := int(body[addrLen])
	if bits > addr.BitLen() {
		return netip.Prefix{}, fmt.Errorf("ospf: bad prefix length %d", bits)
	}
	return netip.PrefixFrom(addr, bits).Masked(), nil
}

func refDecodePacket(buf []byte) (*Packet, error) {
	if len(buf) < 7 {
		return nil, fmt.Errorf("ospf: packet truncated")
	}
	p := &Packet{
		Type: PacketType(buf[0]),
		From: RouterID(binary.BigEndian.Uint32(buf[1:])),
	}
	n := int(binary.BigEndian.Uint16(buf[5:]))
	rest := buf[7:]
	switch p.Type {
	case PktHello:
		if len(rest) != 0 {
			return nil, fmt.Errorf("ospf: hello with payload")
		}
	case PktLSUpdate:
		for i := 0; i < n; i++ {
			if len(rest) < 2 {
				return nil, fmt.Errorf("ospf: update truncated")
			}
			ll := int(binary.BigEndian.Uint16(rest))
			rest = rest[2:]
			if len(rest) < ll {
				return nil, fmt.Errorf("ospf: update LSA truncated")
			}
			l, err := refDecodeLSA(rest[:ll])
			if err != nil {
				return nil, err
			}
			p.LSAs = append(p.LSAs, l)
			rest = rest[ll:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("ospf: update trailing bytes")
		}
	case PktLSAck:
		if len(rest) != 13*n {
			return nil, fmt.Errorf("ospf: ack size %d for %d acks", len(rest), n)
		}
		for i := 0; i < n; i++ {
			a := rest[13*i:]
			p.Acks = append(p.Acks, Header{
				Type:      LSAType(a[0]),
				AdvRouter: RouterID(binary.BigEndian.Uint32(a[1:])),
				LSID:      binary.BigEndian.Uint32(a[5:]),
				Seq:       binary.BigEndian.Uint32(a[9:]),
			})
		}
	default:
		return nil, fmt.Errorf("ospf: unknown packet type %d", buf[0])
	}
	return p, nil
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// codecAgrees holds the codec to the reference on one buffer, read both as
// a packet and as a bare LSA: same verdict, same error text, deeply equal
// decoded values, and the in-place readers HandlePacket walks a checked
// packet with (wireHeader, nextUpdateLSA, wireAck) see what the reference
// decoded.
func codecAgrees(t testing.TB, buf []byte) {
	t.Helper()
	wantL, wantErr := refDecodeLSA(buf)
	h, checkErr := checkLSA(buf)
	gotL, gotErr := DecodeLSA(buf)
	if errText(checkErr) != errText(wantErr) || errText(gotErr) != errText(wantErr) {
		t.Fatalf("LSA %x:\ncheck  %q\ndecode %q\nwant   %q", buf, errText(checkErr), errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Fatalf("LSA %x:\ngot  %+v\nwant %+v", buf, gotL, wantL)
	}
	if wantL != nil && h != wantL.Header {
		t.Fatalf("LSA %x: checked header %+v, want %+v", buf, h, wantL.Header)
	}

	wantP, wantErr := refDecodePacket(buf)
	w, checkErr := checkPacket(buf)
	gotP, gotErr := DecodePacket(buf)
	if errText(checkErr) != errText(wantErr) || errText(gotErr) != errText(wantErr) {
		t.Fatalf("packet %x:\ncheck  %q\ndecode %q\nwant   %q", buf, errText(checkErr), errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("packet %x:\ngot  %+v\nwant %+v", buf, gotP, wantP)
	}
	if wantP == nil {
		return
	}
	if w.Type != wantP.Type || w.From != wantP.From {
		t.Fatalf("packet %x: checked as %v from %d, want %v from %d", buf, w.Type, w.From, wantP.Type, wantP.From)
	}
	switch w.Type {
	case PktLSUpdate:
		if w.Count != len(wantP.LSAs) {
			t.Fatalf("packet %x: %d LSAs, want %d", buf, w.Count, len(wantP.LSAs))
		}
		rest := w.rest
		for _, want := range wantP.LSAs {
			var enc []byte
			enc, rest = nextUpdateLSA(rest)
			if got := wireHeader(enc); got != want.Header {
				t.Fatalf("packet %x: header in place %+v, want %+v", buf, got, want.Header)
			}
		}
	case PktLSAck:
		if w.Count != len(wantP.Acks) {
			t.Fatalf("packet %x: %d acks, want %d", buf, w.Count, len(wantP.Acks))
		}
		for i, want := range wantP.Acks {
			if got := wireAck(w.rest, i); got != want {
				t.Fatalf("packet %x: ack %d in place %+v, want %+v", buf, i, got, want)
			}
		}
	}
}

// randomLSA draws a valid LSA of any type: 0-12 links, v4 or v6 prefixes
// of any length (unmasked, so the decoder's Masked() has work to do).
func randomLSA(rng *rand.Rand) *LSA {
	l := &LSA{Header: Header{
		Type:      LSAType(1 + rng.Intn(3)),
		Age:       uint16(rng.Intn(int(MaxAgeSeconds) + 1)),
		AdvRouter: RouterID(rng.Uint32()),
		LSID:      rng.Uint32(),
		Seq:       rng.Uint32(),
	}}
	if l.Header.Type == TypeRouter {
		for i := rng.Intn(13); i > 0; i-- {
			l.RouterLinks = append(l.RouterLinks, RouterLink{Neighbor: RouterID(rng.Uint32()), Metric: rng.Uint32()})
		}
		return l
	}
	if rng.Intn(2) == 0 {
		var a [4]byte
		rng.Read(a[:])
		l.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), rng.Intn(33))
	} else {
		var a [16]byte
		rng.Read(a[:])
		l.Prefix = netip.PrefixFrom(netip.AddrFrom16(a), rng.Intn(129))
	}
	l.Metric = rng.Uint32()
	if l.Header.Type == TypeFake {
		l.AttachedTo, l.AttachCost, l.ForwardVia = RouterID(rng.Uint32()), rng.Uint32(), RouterID(rng.Uint32())
	}
	return l
}

// randomPacket draws a valid packet: a hello, an update of 1-3 LSAs or an
// ack of 0-3 headers.
func randomPacket(rng *rand.Rand) *Packet {
	p := &Packet{Type: PacketType(1 + rng.Intn(3)), From: RouterID(rng.Uint32())}
	switch p.Type {
	case PktLSUpdate:
		for i := 1 + rng.Intn(3); i > 0; i-- {
			p.LSAs = append(p.LSAs, randomLSA(rng))
		}
	case PktLSAck:
		for i := rng.Intn(4); i > 0; i-- {
			h := randomLSA(rng).Header
			p.Acks = append(p.Acks, Header{Type: h.Type, AdvRouter: h.AdvRouter, LSID: h.LSID, Seq: h.Seq})
		}
	}
	return p
}

// reseal rewrites an LSA mutant's length and checksum fields, so it gets
// past the integrity checks a bit flip almost always trips and reaches the
// body-shape ones behind them.
func reseal(buf []byte) []byte {
	if len(buf) >= headerLen {
		binary.BigEndian.PutUint16(buf[16:], uint16(len(buf)))
		binary.BigEndian.PutUint16(buf[18:], refFletcher16(buf[headerLen:]))
	}
	return buf
}

// TestCodecMatchesReference is the codec's house oracle: valid packets and
// LSAs of every type, 20 000 bit-flip/truncation mutants of them (half of
// the LSA mutants resealed, bare and inside an update), and pure noise all
// get the reference's verdict from the check/materialise pair.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var packets, lsas [][]byte
	for i := 0; i < 500; i++ {
		packets = append(packets, randomPacket(rng).Encode())
		lsas = append(lsas, randomLSA(rng).Encode())
	}
	for _, buf := range packets {
		codecAgrees(t, buf)
		if _, err := checkPacket(buf); err != nil {
			t.Fatalf("valid packet %x rejected: %v", buf, err)
		}
	}
	for _, buf := range lsas {
		codecAgrees(t, buf)
		if _, err := checkLSA(buf); err != nil {
			t.Fatalf("valid LSA %x rejected: %v", buf, err)
		}
	}
	verdicts := map[bool]int{}
	for i := 0; i < 5000; i++ {
		pkt := mutate(rng, packets[rng.Intn(len(packets))])
		lsa := mutate(rng, lsas[rng.Intn(len(lsas))])
		sealed := reseal(mutate(rng, lsas[rng.Intn(len(lsas))]))
		// The resealed mutant travelling behind a valid LSA: the packet
		// must be judged whole.
		update := appendPacketHeader(nil, PktLSUpdate, 7, 2)
		update = appendUpdateLSA(update, lsas[rng.Intn(len(lsas))])
		update = appendUpdateLSA(update, sealed)
		for _, buf := range [][]byte{pkt, lsa, sealed, update} {
			codecAgrees(t, buf)
		}
		_, err := checkPacket(update)
		verdicts[err == nil]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("resealed mutants accepted %d, rejected %d: the mutation does not straddle the verdict",
			verdicts[true], verdicts[false])
	}
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(96))
		rng.Read(buf)
		codecAgrees(t, buf)
	}
}

// refFloodedStart brings the protocol up: every router originates its
// Router LSA, the loopback prefix, and Prefix LSAs for topology prefixes
// attached to it; hello and refresh timers start ticking.
func refFloodedStart(d *Domain) {
	// Walk routers in topology-node order, not map order: origination and
	// ticker phase are output-visible, and two runs of the same scenario
	// must schedule identical event sequences.
	for _, n := range d.topo.Nodes() {
		r := d.routers[n.ID]
		if r == nil {
			continue
		}
		r.originateRouterLSA()
		r.originatePrefix(0, topo.Prefix{Prefix: LoopbackPrefix(r.node)}, 0)
		d.sched.NewTicker(helloInterval, r.helloTick)
		d.sched.NewTicker(refreshPeriod, r.refreshOwn)
		d.sched.NewTicker(ageSweepEvery, r.ageSweep)
	}
	for i, p := range d.topo.Prefixes() {
		for _, a := range p.Attachments {
			r := d.routers[a.Node]
			if r == nil {
				continue
			}
			// LSID 0 is the loopback; topology prefixes start at 1.
			r.originatePrefix(uint32(i)+1, p, a.Cost)
		}
	}
}

// originatePrefix floods a Prefix LSA for a locally attached prefix.
// lsid must be unique per prefix within this router.
func (r *Router) originatePrefix(lsid uint32, p topo.Prefix, cost int64) {
	r.originate(r.prefixLSA(lsid, p, cost))
}
