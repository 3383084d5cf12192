// Package ospf implements the link-state IGP substrate of the emulation: a
// from-scratch OSPF-like protocol with binary LSA encoding, a link-state
// database, reliable flooding over point-to-point adjacencies, and
// SPF-driven route computation into per-router FIBs.
//
// The protocol is deliberately OSPF-shaped rather than OSPF-compatible:
// it keeps the parts Fibbing relies on — flooded LSAs with sequence
// numbers and aging, Fletcher checksums, two-way connectivity checks,
// ECMP SPF, and external-style LSAs with a forwarding address (our Fake
// LSAs, playing the role of the Type-5 LSAs the real Fibbing controller
// injects) — and drops the parts irrelevant to the paper (areas, DR
// election, broadcast networks).
//
// Route computation is delta-driven (see delta.go): LSDB mutations are
// logged, replayed onto a cached SPF graph, the shortest-path tree is
// patched with spf.Incremental, and only affected prefixes are
// recomputed, leaving the router as a fib.Diff through Domain.OnFIBDelta.
package ospf

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"fibbing.net/fibbing/internal/topo"
)

// RouterID identifies a router in the IGP. Topology node n maps to
// RouterID n+1; 0 is invalid. Fibbing controllers originate LSAs from IDs
// in the ControllerIDBase range, which never collide with topology nodes.
type RouterID uint32

// ControllerIDBase is the first RouterID reserved for Fibbing controllers.
const ControllerIDBase RouterID = 0xFFFF0000

// NodeRouterID maps a topology node to its RouterID.
func NodeRouterID(n topo.NodeID) RouterID { return RouterID(n) + 1 }

// RouterNode maps a RouterID back to its topology node.
func RouterNode(id RouterID) topo.NodeID { return topo.NodeID(id) - 1 }

// IsController reports whether the ID belongs to a Fibbing controller.
func (id RouterID) IsController() bool { return id >= ControllerIDBase }

// LSAType discriminates the LSA kinds of the protocol.
type LSAType uint8

const (
	// TypeRouter describes one router's links (our Router-LSA).
	TypeRouter LSAType = 1
	// TypePrefix announces a destination prefix at a cost from its
	// advertising router (collapsing OSPF's stub/external distinction).
	TypePrefix LSAType = 2
	// TypeFake is the Fibbing lie: a fake node attached to a real router,
	// announcing a prefix, with a forwarding address that the attached
	// router resolves to a physical next hop. It plays the role of the
	// Type-5 AS-external LSAs injected by the real Fibbing controller.
	TypeFake LSAType = 3
)

func (t LSAType) String() string {
	switch t {
	case TypeRouter:
		return "router"
	case TypePrefix:
		return "prefix"
	case TypeFake:
		return "fake"
	default:
		return fmt.Sprintf("lsa(%d)", uint8(t))
	}
}

// MaxAgeSeconds is the age at which an LSA is flushed; originating an LSA
// directly at MaxAge withdraws it (premature aging, as in OSPF).
const MaxAgeSeconds uint16 = 3600

// Header is the common LSA header. The tuple (Type, AdvRouter, LSID)
// identifies an LSA instance; (Seq, Age) order instances by freshness.
type Header struct {
	Type      LSAType
	Age       uint16
	AdvRouter RouterID
	LSID      uint32
	Seq       uint32
	Checksum  uint16
}

// Key identifies an LSA in the database.
type Key struct {
	Type      LSAType
	AdvRouter RouterID
	LSID      uint32
}

// Key returns the database key of the header.
func (h Header) Key() Key {
	return Key{Type: h.Type, AdvRouter: h.AdvRouter, LSID: h.LSID}
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%d/%d", k.Type, k.AdvRouter, k.LSID)
}

// Newer reports whether h is fresher than old, per simplified OSPF rules:
// higher sequence wins; at equal sequence, a MaxAge instance supersedes a
// younger one (this implements withdrawal).
func (h Header) Newer(old Header) bool {
	if h.Seq != old.Seq {
		return h.Seq > old.Seq
	}
	return h.Age >= MaxAgeSeconds && old.Age < MaxAgeSeconds
}

// LSA is the decoded form of any LSA.
type LSA struct {
	Header Header

	// RouterLinks is set for TypeRouter.
	RouterLinks []RouterLink

	// Prefix and Metric are set for TypePrefix and TypeFake.
	Prefix netip.Prefix
	Metric uint32

	// Fake-specific fields (TypeFake).
	// AttachedTo is the real router the fake node hangs off.
	AttachedTo RouterID
	// AttachCost is the metric of the fake link AttachedTo -> fake node.
	// The total cost of the lie seen by AttachedTo is AttachCost+Metric.
	AttachCost uint32
	// ForwardVia is the physical neighbor of AttachedTo that traffic
	// sent "to the fake node" is actually forwarded to (the Type-5
	// forwarding address of real Fibbing).
	ForwardVia RouterID
}

// RouterLink is one adjacency advertised in a Router LSA.
type RouterLink struct {
	Neighbor RouterID
	Metric   uint32
}

// Clone returns a deep copy.
func (l *LSA) Clone() *LSA {
	c := *l
	c.RouterLinks = append([]RouterLink(nil), l.RouterLinks...)
	return &c
}

// --- Wire codec -------------------------------------------------------

// header layout: type(1) flags(1) age(2) advRouter(4) lsid(4) seq(4)
// length(2) checksum(2) = 20 bytes, followed by the body.
const headerLen = 20

// routerLSALen is the wire length of a Router LSA with n links, and
// maxPrefixLSALen that of the longest LSA of the other types: a v6 fake
// LSA, its address, length and four 32-bit fields.
const maxPrefixLSALen = headerLen + 16 + 1 + 16

func routerLSALen(n int) int { return headerLen + 2 + 8*n }

const (
	flagV6 = 1 << 0 // prefix address is 16 bytes instead of 4
)

// Encode serialises the LSA. The checksum is computed over the body with
// the Fletcher-16 algorithm used by OSPF and stored in the header (the Age
// field is excluded from the checksum so aging does not require
// re-checksumming, as in OSPF).
func (l *LSA) Encode() []byte { return l.AppendEncode(nil) }

// AppendEncode serialises the LSA onto dst and returns the extended
// slice. The flooding hot path passes recycled buffers so steady-state
// LSA exchange allocates nothing.
func (l *LSA) AppendEncode(dst []byte) []byte {
	start := len(dst)
	var zeros [headerLen]byte
	dst = append(dst, zeros[:]...)
	dst = l.appendBody(dst)
	buf := dst[start:]
	body := buf[headerLen:]
	buf[0] = byte(l.Header.Type)
	if l.Header.Type != TypeRouter && l.Prefix.Addr().Is6() {
		buf[1] |= flagV6
	}
	binary.BigEndian.PutUint16(buf[2:], l.Header.Age)
	binary.BigEndian.PutUint32(buf[4:], uint32(l.Header.AdvRouter))
	binary.BigEndian.PutUint32(buf[8:], l.Header.LSID)
	binary.BigEndian.PutUint32(buf[12:], l.Header.Seq)
	binary.BigEndian.PutUint16(buf[16:], uint16(len(buf)))
	binary.BigEndian.PutUint16(buf[18:], Fletcher16(body))
	return dst
}

func (l *LSA) appendBody(dst []byte) []byte {
	switch l.Header.Type {
	case TypeRouter:
		var hdr [2]byte
		binary.BigEndian.PutUint16(hdr[:], uint16(len(l.RouterLinks)))
		dst = append(dst, hdr[:]...)
		for _, rl := range l.RouterLinks {
			var e [8]byte
			binary.BigEndian.PutUint32(e[:], uint32(rl.Neighbor))
			binary.BigEndian.PutUint32(e[4:], rl.Metric)
			dst = append(dst, e[:]...)
		}
		return dst
	case TypePrefix:
		dst = appendAddr(dst, l.Prefix.Addr())
		dst = append(dst, byte(l.Prefix.Bits()))
		var m [4]byte
		binary.BigEndian.PutUint32(m[:], l.Metric)
		return append(dst, m[:]...)
	case TypeFake:
		dst = appendAddr(dst, l.Prefix.Addr())
		dst = append(dst, byte(l.Prefix.Bits()))
		var m [16]byte
		binary.BigEndian.PutUint32(m[:], l.Metric)
		binary.BigEndian.PutUint32(m[4:], uint32(l.AttachedTo))
		binary.BigEndian.PutUint32(m[8:], l.AttachCost)
		binary.BigEndian.PutUint32(m[12:], uint32(l.ForwardVia))
		return append(dst, m[:]...)
	default:
		panic(fmt.Sprintf("ospf: encoding unknown LSA type %d", l.Header.Type))
	}
}

// appendAddr appends the address bytes without the intermediate slice
// AsSlice would allocate (4 bytes for v4, 16 for v6, as on the wire).
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		return append(dst, b[:]...)
	}
	b := a.As16()
	return append(dst, b[:]...)
}

// The decoder is split in two so a receiver can judge an LSA by its header
// before paying for the decoded form: checkLSA verifies everything there is
// to verify without allocating, materialiseLSA then builds the *LSA from
// bytes already known to be well-formed. Flooding materialises only the
// instances it installs; duplicates are acked from the header alone.

// wireHeader reads the fixed header fields of an encoded LSA. buf must hold
// at least headerLen bytes.
func wireHeader(buf []byte) Header {
	return Header{
		Type:      LSAType(buf[0]),
		Age:       binary.BigEndian.Uint16(buf[2:]),
		AdvRouter: RouterID(binary.BigEndian.Uint32(buf[4:])),
		LSID:      binary.BigEndian.Uint32(buf[8:]),
		Seq:       binary.BigEndian.Uint32(buf[12:]),
		Checksum:  binary.BigEndian.Uint16(buf[18:]),
	}
}

// wireAddrLen returns the prefix address size the header's flags select.
func wireAddrLen(buf []byte) int {
	if buf[1]&flagV6 != 0 {
		return 16
	}
	return 4
}

// checkLSA validates one encoded LSA — length field, checksum, body shape
// for its type, prefix length — and returns its header. It allocates
// nothing on success.
func checkLSA(buf []byte) (Header, error) {
	if len(buf) < headerLen {
		return Header{}, fmt.Errorf("ospf: LSA truncated (%d bytes)", len(buf))
	}
	h := wireHeader(buf)
	if length := int(binary.BigEndian.Uint16(buf[16:])); length != len(buf) {
		return Header{}, fmt.Errorf("ospf: LSA length field %d != buffer %d", length, len(buf))
	}
	body := buf[headerLen:]
	if got := Fletcher16(body); got != h.Checksum {
		return Header{}, fmt.Errorf("ospf: LSA checksum mismatch (got %04x, want %04x)", got, h.Checksum)
	}
	addrLen := wireAddrLen(buf)
	switch h.Type {
	case TypeRouter:
		if len(body) < 2 {
			return Header{}, fmt.Errorf("ospf: router LSA body truncated")
		}
		n := int(binary.BigEndian.Uint16(body))
		if len(body) != 2+8*n {
			return Header{}, fmt.Errorf("ospf: router LSA body size %d for %d links", len(body), n)
		}
	case TypePrefix, TypeFake:
		want, name := addrLen+5, "prefix"
		if h.Type == TypeFake {
			want, name = addrLen+5+12, "fake"
		}
		if len(body) != want {
			return Header{}, fmt.Errorf("ospf: %s LSA body size %d", name, len(body))
		}
		if bits := int(body[addrLen]); bits > 8*addrLen {
			return Header{}, fmt.Errorf("ospf: bad prefix length %d", bits)
		}
	default:
		return Header{}, fmt.Errorf("ospf: unknown LSA type %d", buf[0])
	}
	return h, nil
}

// materialiseLSA builds the decoded form of an encoding checkLSA accepted.
// Every field is copied out, so the result does not alias buf.
func materialiseLSA(buf []byte) *LSA {
	l := &LSA{Header: wireHeader(buf)}
	body := buf[headerLen:]
	if l.Header.Type == TypeRouter {
		l.RouterLinks = make([]RouterLink, binary.BigEndian.Uint16(body))
		for i := range l.RouterLinks {
			off := 2 + 8*i
			l.RouterLinks[i] = RouterLink{
				Neighbor: RouterID(binary.BigEndian.Uint32(body[off:])),
				Metric:   binary.BigEndian.Uint32(body[off+4:]),
			}
		}
		return l
	}
	addrLen := wireAddrLen(buf)
	addr, _ := netip.AddrFromSlice(body[:addrLen])
	l.Prefix = netip.PrefixFrom(addr, int(body[addrLen])).Masked()
	off := addrLen + 1
	l.Metric = binary.BigEndian.Uint32(body[off:])
	if l.Header.Type == TypeFake {
		l.AttachedTo = RouterID(binary.BigEndian.Uint32(body[off+4:]))
		l.AttachCost = binary.BigEndian.Uint32(body[off+8:])
		l.ForwardVia = RouterID(binary.BigEndian.Uint32(body[off+12:]))
	}
	return l
}

// DecodeLSA parses one encoded LSA, verifying length and checksum.
func DecodeLSA(buf []byte) (*LSA, error) {
	if _, err := checkLSA(buf); err != nil {
		return nil, err
	}
	return materialiseLSA(buf), nil
}

// fletcherBlock is how many bytes Fletcher16 sums between reductions: the
// largest power of two for which neither accumulator can overflow 32 bits
// starting from reduced values (the exact bound is 5802).
const fletcherBlock = 4096

// Fletcher16 computes the Fletcher checksum over data, as used by OSPF for
// LSA integrity (RFC 905 variant without the check-octet placement). The
// modulo-255 reduction is deferred to block boundaries; sums mod 255 are a
// ring homomorphism, so the result equals reducing after every byte.
func Fletcher16(data []byte) uint16 {
	var c0, c1 uint32
	for len(data) > 0 {
		block := data
		if len(block) > fletcherBlock {
			block = block[:fletcherBlock]
		}
		data = data[len(block):]
		for _, b := range block {
			c0 += uint32(b)
			c1 += c0
		}
		c0 %= 255
		c1 %= 255
	}
	return uint16(c1<<8 | c0)
}

// --- Protocol packets --------------------------------------------------

// PacketType discriminates protocol messages exchanged over adjacencies.
type PacketType uint8

const (
	// PktHello maintains adjacency liveness.
	PktHello PacketType = 1
	// PktLSUpdate carries one or more LSAs (flooding).
	PktLSUpdate PacketType = 2
	// PktLSAck acknowledges received LSAs by header.
	PktLSAck PacketType = 3
)

// Packet is one protocol message.
type Packet struct {
	Type PacketType
	From RouterID
	// LSAs is set for PktLSUpdate (full LSAs).
	LSAs []*LSA
	// Acks is set for PktLSAck (headers only).
	Acks []Header
}

// packetHeaderLen is type(1) from(4) count(2); ackLen is one acknowledged
// header: type(1) advRouter(4) lsid(4) seq(4).
const (
	packetHeaderLen = 7
	ackLen          = 13
)

// appendPacketHeader starts a packet of the given type carrying count LSAs
// or acks.
func appendPacketHeader(dst []byte, t PacketType, from RouterID, count int) []byte {
	var hdr [packetHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(from))
	binary.BigEndian.PutUint16(hdr[5:], uint16(count))
	return append(dst, hdr[:]...)
}

// appendUpdateLSA appends one length-prefixed, already encoded LSA to an
// update packet.
func appendUpdateLSA(dst, enc []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(enc)))
	return append(dst, enc...)
}

// appendAck appends one acknowledged header to an ack packet.
func appendAck(dst []byte, h Header) []byte {
	var a [ackLen]byte
	a[0] = byte(h.Type)
	binary.BigEndian.PutUint32(a[1:], uint32(h.AdvRouter))
	binary.BigEndian.PutUint32(a[5:], h.LSID)
	binary.BigEndian.PutUint32(a[9:], h.Seq)
	return append(dst, a[:]...)
}

// wireAck reads the i-th header of a checked ack's payload.
func wireAck(rest []byte, i int) Header {
	a := rest[ackLen*i:]
	return Header{
		Type:      LSAType(a[0]),
		AdvRouter: RouterID(binary.BigEndian.Uint32(a[1:])),
		LSID:      binary.BigEndian.Uint32(a[5:]),
		Seq:       binary.BigEndian.Uint32(a[9:]),
	}
}

// nextUpdateLSA splits the first length-prefixed LSA off a checked
// update's payload.
func nextUpdateLSA(rest []byte) (enc, tail []byte) {
	ll := int(binary.BigEndian.Uint16(rest))
	return rest[2 : 2+ll], rest[2+ll:]
}

// Encode serialises the packet: type(1) from(4) count(2) then
// length-prefixed LSAs or fixed-size ack headers.
func (p *Packet) Encode() []byte {
	switch p.Type {
	case PktHello:
		return appendPacketHeader(nil, PktHello, p.From, 0)
	case PktLSUpdate:
		out := appendPacketHeader(nil, PktLSUpdate, p.From, len(p.LSAs))
		for _, l := range p.LSAs {
			out = appendUpdateLSA(out, l.Encode())
		}
		return out
	case PktLSAck:
		out := appendPacketHeader(nil, PktLSAck, p.From, len(p.Acks))
		for _, h := range p.Acks {
			out = appendAck(out, h)
		}
		return out
	default:
		panic(fmt.Sprintf("ospf: encoding unknown packet type %d", p.Type))
	}
}

// wirePacket is a checked protocol message read in place: the payload of
// an update is walked with nextUpdateLSA, of an ack with wireAck.
type wirePacket struct {
	Type  PacketType
	From  RouterID
	Count int    // LSAs or acks carried
	rest  []byte // payload after the packet header
}

// checkPacket validates a whole protocol message — framing, and for
// updates every LSA it carries, so nothing is acted on unless all of it is
// sound. It allocates nothing on success.
func checkPacket(buf []byte) (wirePacket, error) {
	if len(buf) < packetHeaderLen {
		return wirePacket{}, fmt.Errorf("ospf: packet truncated")
	}
	p := wirePacket{
		Type:  PacketType(buf[0]),
		From:  RouterID(binary.BigEndian.Uint32(buf[1:])),
		Count: int(binary.BigEndian.Uint16(buf[5:])),
		rest:  buf[packetHeaderLen:],
	}
	switch p.Type {
	case PktHello:
		if len(p.rest) != 0 {
			return wirePacket{}, fmt.Errorf("ospf: hello with payload")
		}
	case PktLSUpdate:
		tail := p.rest
		for i := 0; i < p.Count; i++ {
			if len(tail) < 2 {
				return wirePacket{}, fmt.Errorf("ospf: update truncated")
			}
			ll := int(binary.BigEndian.Uint16(tail))
			if len(tail)-2 < ll {
				return wirePacket{}, fmt.Errorf("ospf: update LSA truncated")
			}
			if _, err := checkLSA(tail[2 : 2+ll]); err != nil {
				return wirePacket{}, err
			}
			tail = tail[2+ll:]
		}
		if len(tail) != 0 {
			return wirePacket{}, fmt.Errorf("ospf: update trailing bytes")
		}
	case PktLSAck:
		if len(p.rest) != ackLen*p.Count {
			return wirePacket{}, fmt.Errorf("ospf: ack size %d for %d acks", len(p.rest), p.Count)
		}
	default:
		return wirePacket{}, fmt.Errorf("ospf: unknown packet type %d", buf[0])
	}
	return p, nil
}

// DecodePacket parses one protocol message.
func DecodePacket(buf []byte) (*Packet, error) {
	w, err := checkPacket(buf)
	if err != nil {
		return nil, err
	}
	p := &Packet{Type: w.Type, From: w.From}
	switch w.Type {
	case PktLSUpdate:
		rest := w.rest
		for i := 0; i < w.Count; i++ {
			var enc []byte
			enc, rest = nextUpdateLSA(rest)
			p.LSAs = append(p.LSAs, materialiseLSA(enc))
		}
	case PktLSAck:
		for i := 0; i < w.Count; i++ {
			p.Acks = append(p.Acks, wireAck(w.rest, i))
		}
	}
	return p, nil
}
