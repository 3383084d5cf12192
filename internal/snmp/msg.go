package snmp

import (
	"fmt"
	"slices"
	"sync"
)

// PDUType discriminates SNMP operations.
type PDUType byte

// Supported PDU types.
const (
	GetRequest     PDUType = tagGetRequest
	GetNextRequest PDUType = tagGetNextRequest
	GetResponse    PDUType = tagGetResponse
	SetRequest     PDUType = tagSetRequest
	GetBulkRequest PDUType = tagGetBulkRequest
)

func (t PDUType) String() string {
	switch t {
	case GetRequest:
		return "get"
	case GetNextRequest:
		return "get-next"
	case GetResponse:
		return "response"
	case SetRequest:
		return "set"
	case GetBulkRequest:
		return "get-bulk"
	default:
		return fmt.Sprintf("pdu(%#x)", byte(t))
	}
}

// Error status codes (SNMPv2c).
const (
	ErrNoError    = 0
	ErrTooBig     = 1
	ErrGenErr     = 5
	ErrNoAccess   = 6
	ErrAuthError  = 16 // community mismatch (reported, not on the wire)
	ErrReadOnly   = 4
	ErrWrongValue = 10
)

// VarBind is one (OID, value) pair.
type VarBind struct {
	OID   OID
	Value Value
}

// PDU is the operation part of a message. For GetBulk, NonRepeaters and
// MaxRepetitions reuse the error-status/error-index fields as per RFC 3416.
type PDU struct {
	Type        PDUType
	RequestID   int32
	ErrorStatus int32 // or non-repeaters for GetBulk
	ErrorIndex  int32 // or max-repetitions for GetBulk
	VarBinds    []VarBind
}

// Message is a community-based SNMP message (version 1 = SNMPv2c).
type Message struct {
	Version   int64 // 1 for v2c
	Community string
	PDU       PDU
}

// Version constant for SNMPv2c.
const Version2c = 1

// Encode serialises the message to BER.
func (m *Message) Encode() []byte { return m.appendTo(nil) }

// appendTo appends the BER encoding of m to dst: lengths first, then one
// pass over the values, so the only allocation is dst's own growth.
func (m *Message) appendTo(dst []byte) []byte {
	vbl := 0
	for i := range m.PDU.VarBinds {
		vbl += tlvLen(varBindLen(&m.PDU.VarBinds[i]))
	}
	pdu := tlvLen(intLen(int64(m.PDU.RequestID))) +
		tlvLen(intLen(int64(m.PDU.ErrorStatus))) +
		tlvLen(intLen(int64(m.PDU.ErrorIndex))) +
		tlvLen(vbl)
	body := tlvLen(intLen(m.Version)) + tlvLen(len(m.Community)) + tlvLen(pdu)

	dst = slices.Grow(dst, tlvLen(body))
	dst = appendHeader(dst, tagSequence, body)
	dst = appendInt(dst, tagInteger, m.Version)
	dst = appendHeader(dst, tagOctetString, len(m.Community))
	dst = append(dst, m.Community...)
	dst = appendHeader(dst, byte(m.PDU.Type), pdu)
	dst = appendInt(dst, tagInteger, int64(m.PDU.RequestID))
	dst = appendInt(dst, tagInteger, int64(m.PDU.ErrorStatus))
	dst = appendInt(dst, tagInteger, int64(m.PDU.ErrorIndex))
	dst = appendHeader(dst, tagSequence, vbl)
	for i := range m.PDU.VarBinds {
		vb := &m.PDU.VarBinds[i]
		dst = appendHeader(dst, tagSequence, varBindLen(vb))
		dst = appendOID(dst, vb.OID)
		dst = appendValue(dst, vb.Value)
	}
	return dst
}

// varBindLen is the content size of one varbind's sequence.
func varBindLen(vb *VarBind) int {
	return tlvLen(oidLen(vb.OID)) + tlvLen(valueLen(vb.Value))
}

// DecodeMessage parses one BER-encoded SNMP message into storage of its
// own.
func DecodeMessage(buf []byte) (*Message, error) {
	return new(decoder).decode(buf)
}

// decoder is the storage one decoded message lives in. decode returns
// &d.msg, whose varbind list, OIDs and octet strings are slices of the
// three arenas below — so a message is valid until the next decode through
// the same decoder and no longer, and a caller that keeps one past that
// (Client.Get, DecodeMessage) decodes through a decoder of its own. An
// arena that grows mid-message leaves the slices cut before the growth on
// the old array, which they keep alive; a decoder that has seen its
// largest message allocates nothing.
type decoder struct {
	msg    Message
	vbs    []VarBind
	arcs   []uint32
	octets []byte
}

func (d *decoder) decode(buf []byte) (*Message, error) {
	r := reader{buf: buf}
	tag, content, err := r.readTLV()
	if err != nil {
		return nil, err
	}
	if tag != tagSequence {
		return nil, fmt.Errorf("snmp: message is not a sequence (tag %#x)", tag)
	}
	if !r.done() {
		return nil, fmt.Errorf("snmp: trailing bytes after message")
	}
	body := reader{buf: content}

	m := &d.msg
	d.vbs, d.arcs, d.octets = d.vbs[:0], d.arcs[:0], d.octets[:0]
	m.PDU = PDU{}
	tag, c, err := body.readTLV()
	if err != nil || tag != tagInteger {
		return nil, fmt.Errorf("snmp: missing version")
	}
	if m.Version, err = decodeInt(c); err != nil {
		return nil, err
	}
	tag, c, err = body.readTLV()
	if err != nil || tag != tagOctetString {
		return nil, fmt.Errorf("snmp: missing community")
	}
	if m.Community != string(c) { // the comparison does not allocate; a poller's community never changes
		m.Community = string(c)
	}

	tag, c, err = body.readTLV()
	if err != nil {
		return nil, fmt.Errorf("snmp: missing PDU")
	}
	switch PDUType(tag) {
	case GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest:
		m.PDU.Type = PDUType(tag)
	default:
		return nil, fmt.Errorf("snmp: unsupported PDU type %#x", tag)
	}
	if !body.done() {
		return nil, fmt.Errorf("snmp: trailing bytes after PDU")
	}

	p := reader{buf: c}
	for i, dst := range [...]*int32{&m.PDU.RequestID, &m.PDU.ErrorStatus, &m.PDU.ErrorIndex} {
		tag, c, err := p.readTLV()
		if err != nil || tag != tagInteger {
			return nil, fmt.Errorf("snmp: missing PDU header field %d", i)
		}
		v, err := decodeInt(c)
		if err != nil {
			return nil, err
		}
		*dst = int32(v)
	}
	tag, c, err = p.readTLV()
	if err != nil || tag != tagSequence {
		return nil, fmt.Errorf("snmp: missing varbind list")
	}
	if !p.done() {
		return nil, fmt.Errorf("snmp: trailing bytes after varbinds")
	}
	vbl := reader{buf: c}
	for !vbl.done() {
		tag, c, err := vbl.readTLV()
		if err != nil || tag != tagSequence {
			return nil, fmt.Errorf("snmp: bad varbind")
		}
		vb := reader{buf: c}
		tag, oc, err := vb.readTLV()
		if err != nil || tag != tagOID {
			return nil, fmt.Errorf("snmp: varbind without OID")
		}
		oid, err := d.decodeOID(oc)
		if err != nil {
			return nil, err
		}
		tag, vc, err := vb.readTLV()
		if err != nil {
			return nil, fmt.Errorf("snmp: varbind without value")
		}
		val, err := d.decodeValue(tag, vc)
		if err != nil {
			return nil, err
		}
		if !vb.done() {
			return nil, fmt.Errorf("snmp: trailing bytes in varbind")
		}
		d.vbs = append(d.vbs, VarBind{OID: oid, Value: val})
	}
	if len(d.vbs) > 0 {
		m.PDU.VarBinds = d.vbs
	}
	return m, nil
}

// decodeOID parses OID content into the arc arena and returns the slice
// of it, capped so that appending to the OID copies it out.
func (d *decoder) decodeOID(content []byte) (OID, error) {
	if len(content) == 0 {
		return nil, fmt.Errorf("snmp: empty OID")
	}
	start := len(d.arcs)
	d.arcs = append(d.arcs, uint32(content[0]/40), uint32(content[0]%40))
	var cur uint32
	inArc := false
	for _, b := range content[1:] {
		cur = cur<<7 | uint32(b&0x7F)
		inArc = true
		if b&0x80 == 0 {
			d.arcs = append(d.arcs, cur)
			cur = 0
			inArc = false
		}
	}
	if inArc {
		return nil, fmt.Errorf("snmp: OID ends mid-arc")
	}
	return d.arcs[start:len(d.arcs):len(d.arcs)], nil
}

func (d *decoder) decodeValue(tag byte, content []byte) (Value, error) {
	switch tag {
	case tagNull:
		return Value{Kind: KindNull}, nil
	case tagInteger:
		v, err := decodeInt(content)
		return Value{Kind: KindInteger, Int: v}, err
	case tagOctetString:
		if len(content) == 0 {
			return Value{Kind: KindOctetString}, nil
		}
		start := len(d.octets)
		d.octets = append(d.octets, content...)
		return Value{Kind: KindOctetString, Bytes: d.octets[start:len(d.octets):len(d.octets)]}, nil
	case tagOID:
		o, err := d.decodeOID(content)
		return Value{Kind: KindOID, OID: o}, err
	case tagCounter32:
		v, err := decodeUint(content)
		return Value{Kind: KindCounter32, Uint: v}, err
	case tagGauge32:
		v, err := decodeUint(content)
		return Value{Kind: KindGauge32, Uint: v}, err
	case tagTimeTicks:
		v, err := decodeUint(content)
		return Value{Kind: KindTimeTicks, Uint: v}, err
	case tagCounter64:
		v, err := decodeUint(content)
		return Value{Kind: KindCounter64, Uint: v}, err
	case tagNoSuchObject:
		return Value{Kind: KindNoSuchObject}, nil
	case tagNoSuchInstance:
		return Value{Kind: KindNoSuchInstance}, nil
	case tagEndOfMibView:
		return Value{Kind: KindEndOfMibView}, nil
	default:
		return Value{}, fmt.Errorf("snmp: unknown value tag %#x", tag)
	}
}

// exchange is the scratch of one request/response exchange, on either
// side of it: the decoder the peer's message is parsed through, the
// message being built and (client side) its encoding. HandleRequest and
// GetCounters take one from exchanges for the length of a call, so
// concurrent callers never share one; nothing that outlives the call may
// point into it.
type exchange struct {
	in  decoder
	out Message
	buf []byte
}

var exchanges = sync.Pool{New: func() any { return new(exchange) }}
