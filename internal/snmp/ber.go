// Package snmp implements the subset of SNMPv2c the Fibbing controller
// needs to monitor link loads, from the BER wire encoding up: GET,
// GETNEXT and GETBULK requests, an agent serving an IF-MIB-style counter
// tree over UDP (or in-memory for deterministic simulations), and a
// polling client.
//
// The paper's controller "monitors link loads using SNMP"; this package
// keeps that code path real — PDUs are encoded and decoded byte for byte —
// while allowing the counter source to be the fluid simulator.
//
// What polling costs. Client.GetCounters reads a watch list in as few GET
// requests as fit one chunk (getChunk varbinds) and checks that each
// response echoes the names asked, in order. The codec allocates nothing
// per value: Message.appendTo computes every length first and writes the
// message in one pass into one buffer; a decoder parses into a Message
// whose varbinds, OIDs and octet strings are slices of the decoder's own
// arenas, valid until its next decode (DecodeMessage and Client.Get, whose
// results the caller keeps, decode through a fresh one). Agent and client
// take that scratch from a pool per call, so both stay safe under
// concurrent callers. The MIB is a sorted OID table with a parallel
// table of objects, each serving its value when read, binary-searched by
// Get and Next alike; a registration past the last OID is an append.
// BindIFMIB registers the IF-MIB column by column in MIB order, so a
// bind appends every OID; its OIDs are cut from one array and its objects
// are rows of one slice, so a bind allocates per call, not per link.
// OID.String is for logs and error texts only.
package snmp

import (
	"fmt"
	"strconv"
	"strings"
)

// OID is an object identifier.
type OID []uint32

// ParseOID parses dotted notation ("1.3.6.1.2.1.2.2.1.10.3").
func ParseOID(s string) (OID, error) {
	parts := strings.Split(strings.TrimPrefix(s, "."), ".")
	if len(parts) < 2 {
		return nil, fmt.Errorf("snmp: OID %q too short", s)
	}
	out := make(OID, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("snmp: bad OID component %q", p)
		}
		out[i] = uint32(v)
	}
	if out[0] > 2 || (out[0] < 2 && out[1] >= 40) {
		return nil, fmt.Errorf("snmp: invalid OID header %d.%d", out[0], out[1])
	}
	return out, nil
}

// MustOID parses a literal OID, panicking on error.
func MustOID(s string) OID {
	o, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return o
}

func (o OID) String() string {
	parts := make([]string, len(o))
	for i, v := range o {
		parts[i] = strconv.FormatUint(uint64(v), 10)
	}
	return strings.Join(parts, ".")
}

// Cmp compares OIDs in lexicographic MIB order.
func (o OID) Cmp(other OID) int {
	for i := 0; i < len(o) && i < len(other); i++ {
		if o[i] != other[i] {
			if o[i] < other[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(o) < len(other):
		return -1
	case len(o) > len(other):
		return 1
	default:
		return 0
	}
}

// HasPrefix reports whether o sits under prefix in the MIB tree.
func (o OID) HasPrefix(prefix OID) bool {
	if len(o) < len(prefix) {
		return false
	}
	return o[:len(prefix)].Cmp(prefix) == 0
}

// Append returns o with extra arcs appended (fresh storage).
func (o OID) Append(arcs ...uint32) OID {
	out := make(OID, 0, len(o)+len(arcs))
	out = append(out, o...)
	return append(out, arcs...)
}

// BER/universal and SNMP application tags.
const (
	tagInteger     = 0x02
	tagOctetString = 0x04
	tagNull        = 0x05
	tagOID         = 0x06
	tagSequence    = 0x30

	tagIPAddress = 0x40
	tagCounter32 = 0x41
	tagGauge32   = 0x42
	tagTimeTicks = 0x43
	tagCounter64 = 0x46

	tagNoSuchObject   = 0x80
	tagNoSuchInstance = 0x81
	tagEndOfMibView   = 0x82

	tagGetRequest     = 0xA0
	tagGetNextRequest = 0xA1
	tagGetResponse    = 0xA2
	tagSetRequest     = 0xA3
	tagGetBulkRequest = 0xA5
)

// Kind discriminates varbind value types.
type Kind uint8

// Value kinds supported by this subset.
const (
	KindNull Kind = iota
	KindInteger
	KindOctetString
	KindOID
	KindCounter32
	KindGauge32
	KindTimeTicks
	KindCounter64
	KindNoSuchObject
	KindNoSuchInstance
	KindEndOfMibView
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInteger:
		return "integer"
	case KindOctetString:
		return "octet-string"
	case KindOID:
		return "oid"
	case KindCounter32:
		return "counter32"
	case KindGauge32:
		return "gauge32"
	case KindTimeTicks:
		return "timeticks"
	case KindCounter64:
		return "counter64"
	case KindNoSuchObject:
		return "noSuchObject"
	case KindNoSuchInstance:
		return "noSuchInstance"
	case KindEndOfMibView:
		return "endOfMibView"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is one varbind value.
type Value struct {
	Kind  Kind
	Int   int64  // KindInteger
	Uint  uint64 // counters, gauge, ticks
	Bytes []byte // KindOctetString
	OID   OID    // KindOID
}

// Counter64Value builds a Counter64.
func Counter64Value(v uint64) Value { return Value{Kind: KindCounter64, Uint: v} }

// Counter32Value builds a Counter32 (wraps at 2^32 like real interfaces).
func Counter32Value(v uint64) Value { return Value{Kind: KindCounter32, Uint: v & 0xFFFFFFFF} }

// GaugeValue builds a Gauge32.
func GaugeValue(v uint64) Value { return Value{Kind: KindGauge32, Uint: v & 0xFFFFFFFF} }

// StringValue builds an OctetString.
func StringValue(s string) Value { return Value{Kind: KindOctetString, Bytes: []byte(s)} }

// IntegerValue builds an Integer.
func IntegerValue(v int64) Value { return Value{Kind: KindInteger, Int: v} }

// --- BER primitives ----------------------------------------------------
//
// Encoding is size-first: every length is computed from the values before
// the first byte is written, so a message goes out in one pass into one
// buffer. Each append* below has a *Len twin that returns the size of the
// content it writes.

func lengthLen(n int) int {
	switch {
	case n < 0x80:
		return 1
	case n <= 0xFF:
		return 2
	case n <= 0xFFFF:
		return 3
	default:
		return 4
	}
}

// tlvLen is the encoded size of a TLV whose content is n bytes.
func tlvLen(n int) int { return 1 + lengthLen(n) + n }

// appendHeader writes a tag and the length of the content that follows.
func appendHeader(b []byte, tag byte, n int) []byte {
	switch {
	case n < 0x80:
		return append(b, tag, byte(n))
	case n <= 0xFF:
		return append(b, tag, 0x81, byte(n))
	case n <= 0xFFFF:
		return append(b, tag, 0x82, byte(n>>8), byte(n))
	default:
		return append(b, tag, 0x83, byte(n>>16), byte(n>>8), byte(n))
	}
}

// intLen is the minimal two's-complement length of v.
func intLen(v int64) int {
	n := 1
	for v > 0x7F || v < -0x80 {
		v >>= 8
		n++
	}
	return n
}

func appendInt(b []byte, tag byte, v int64) []byte {
	n := intLen(v)
	b = append(b, tag, byte(n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// uintLen is the length of v as a non-negative integer: minimal, plus a
// leading zero where the top bit would read as a sign.
func uintLen(v uint64) int {
	n := 1
	for v > 0x7F {
		v >>= 8
		n++
	}
	return n
}

func appendUint(b []byte, tag byte, v uint64) []byte {
	n := uintLen(v)
	b = append(b, tag, byte(n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(v>>(8*i))) // i == 8 shifts everything out: the leading zero
	}
	return b
}

func arcLen(v uint32) int {
	switch {
	case v < 1<<7:
		return 1
	case v < 1<<14:
		return 2
	case v < 1<<21:
		return 3
	case v < 1<<28:
		return 4
	default:
		return 5
	}
}

func oidLen(o OID) int {
	if len(o) < 2 {
		return 1
	}
	n := 1
	for _, arc := range o[2:] {
		n += arcLen(arc)
	}
	return n
}

func appendOID(b []byte, o OID) []byte {
	b = appendHeader(b, tagOID, oidLen(o))
	if len(o) < 2 {
		// Encode degenerate OIDs as 0.0 to stay well-formed.
		return append(b, 0)
	}
	b = append(b, byte(o[0]*40+o[1]))
	for _, arc := range o[2:] {
		for i := arcLen(arc) - 1; i > 0; i-- {
			b = append(b, byte(arc>>(7*i))|0x80)
		}
		b = append(b, byte(arc&0x7F))
	}
	return b
}

func valueLen(v Value) int {
	switch v.Kind {
	case KindNull, KindNoSuchObject, KindNoSuchInstance, KindEndOfMibView:
		return 0
	case KindInteger:
		return intLen(v.Int)
	case KindOctetString:
		return len(v.Bytes)
	case KindOID:
		return oidLen(v.OID)
	case KindCounter32, KindGauge32, KindTimeTicks:
		return uintLen(v.Uint & 0xFFFFFFFF)
	case KindCounter64:
		return uintLen(v.Uint)
	default:
		panic(fmt.Sprintf("snmp: encoding unknown kind %v", v.Kind))
	}
}

func appendValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, tagNull, 0)
	case KindInteger:
		return appendInt(b, tagInteger, v.Int)
	case KindOctetString:
		return append(appendHeader(b, tagOctetString, len(v.Bytes)), v.Bytes...)
	case KindOID:
		return appendOID(b, v.OID)
	case KindCounter32:
		return appendUint(b, tagCounter32, v.Uint&0xFFFFFFFF)
	case KindGauge32:
		return appendUint(b, tagGauge32, v.Uint&0xFFFFFFFF)
	case KindTimeTicks:
		return appendUint(b, tagTimeTicks, v.Uint&0xFFFFFFFF)
	case KindCounter64:
		return appendUint(b, tagCounter64, v.Uint)
	case KindNoSuchObject:
		return append(b, tagNoSuchObject, 0)
	case KindNoSuchInstance:
		return append(b, tagNoSuchInstance, 0)
	case KindEndOfMibView:
		return append(b, tagEndOfMibView, 0)
	default:
		panic(fmt.Sprintf("snmp: encoding unknown kind %v", v.Kind))
	}
}

// reader is a BER cursor.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) readTLV() (tag byte, content []byte, err error) {
	if r.pos >= len(r.buf) {
		return 0, nil, fmt.Errorf("snmp: truncated TLV")
	}
	tag = r.buf[r.pos]
	r.pos++
	if r.pos >= len(r.buf) {
		return 0, nil, fmt.Errorf("snmp: truncated length")
	}
	l := int(r.buf[r.pos])
	r.pos++
	if l >= 0x80 {
		n := l & 0x7F
		if n == 0 || n > 3 {
			return 0, nil, fmt.Errorf("snmp: unsupported length form %#x", l)
		}
		if r.pos+n > len(r.buf) {
			return 0, nil, fmt.Errorf("snmp: truncated long length")
		}
		l = 0
		for i := 0; i < n; i++ {
			l = l<<8 | int(r.buf[r.pos])
			r.pos++
		}
	}
	if r.pos+l > len(r.buf) {
		return 0, nil, fmt.Errorf("snmp: TLV content exceeds buffer")
	}
	content = r.buf[r.pos : r.pos+l]
	r.pos += l
	return tag, content, nil
}

func (r *reader) done() bool { return r.pos >= len(r.buf) }

func decodeInt(content []byte) (int64, error) {
	if len(content) == 0 || len(content) > 8 {
		return 0, fmt.Errorf("snmp: bad integer length %d", len(content))
	}
	v := int64(0)
	if content[0] >= 0x80 {
		v = -1
	}
	for _, b := range content {
		v = v<<8 | int64(b)
	}
	return v, nil
}

func decodeUint(content []byte) (uint64, error) {
	if len(content) == 0 || len(content) > 9 {
		return 0, fmt.Errorf("snmp: bad unsigned length %d", len(content))
	}
	if len(content) == 9 && content[0] != 0 {
		return 0, fmt.Errorf("snmp: unsigned overflow")
	}
	v := uint64(0)
	for _, b := range content {
		v = v<<8 | uint64(b)
	}
	return v, nil
}
