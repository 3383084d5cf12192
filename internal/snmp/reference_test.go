package snmp

// The BER codec as it stood before the size-first encoder and the arena
// decoder, kept verbatim (names prefixed ref) as the oracle of
// TestCodecMatchesReference and FuzzDecodeMessage: one allocation per
// integer byte, OID and nesting level on the way out, one per OID, octet
// string and message on the way in.

import (
	"fmt"

	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

func refAppendLength(b []byte, n int) []byte {
	switch {
	case n < 0x80:
		return append(b, byte(n))
	case n <= 0xFF:
		return append(b, 0x81, byte(n))
	case n <= 0xFFFF:
		return append(b, 0x82, byte(n>>8), byte(n))
	default:
		return append(b, 0x83, byte(n>>16), byte(n>>8), byte(n))
	}
}

func refAppendTLV(b []byte, tag byte, content []byte) []byte {
	b = append(b, tag)
	b = refAppendLength(b, len(content))
	return append(b, content...)
}

func refAppendInt(b []byte, tag byte, v int64) []byte {
	// Two's complement, minimal length.
	var content []byte
	for {
		content = append([]byte{byte(v)}, content...)
		next := v >> 8
		if (next == 0 && v >= 0 && content[0] < 0x80) ||
			(next == -1 && v < 0 && content[0] >= 0x80) {
			break
		}
		v = next
	}
	return refAppendTLV(b, tag, content)
}

func refAppendUint(b []byte, tag byte, v uint64) []byte {
	var content []byte
	for {
		content = append([]byte{byte(v)}, content...)
		v >>= 8
		if v == 0 {
			break
		}
	}
	if content[0] >= 0x80 {
		content = append([]byte{0}, content...)
	}
	return refAppendTLV(b, tag, content)
}

func refAppendOID(b []byte, o OID) []byte {
	if len(o) < 2 {
		// Encode degenerate OIDs as 0.0 to stay well-formed.
		o = OID{0, 0}
	}
	content := []byte{byte(o[0]*40 + o[1])}
	for _, arc := range o[2:] {
		content = append(content, refEncodeBase128(arc)...)
	}
	return refAppendTLV(b, tagOID, content)
}

func refEncodeBase128(v uint32) []byte {
	if v == 0 {
		return []byte{0}
	}
	var tmp [5]byte
	i := len(tmp)
	last := true
	for v > 0 {
		i--
		b := byte(v & 0x7F)
		if !last {
			b |= 0x80
		}
		tmp[i] = b
		last = false
		v >>= 7
	}
	return tmp[i:]
}

func refAppendValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return refAppendTLV(b, tagNull, nil)
	case KindInteger:
		return refAppendInt(b, tagInteger, v.Int)
	case KindOctetString:
		return refAppendTLV(b, tagOctetString, v.Bytes)
	case KindOID:
		return refAppendOID(b, v.OID)
	case KindCounter32:
		return refAppendUint(b, tagCounter32, v.Uint&0xFFFFFFFF)
	case KindGauge32:
		return refAppendUint(b, tagGauge32, v.Uint&0xFFFFFFFF)
	case KindTimeTicks:
		return refAppendUint(b, tagTimeTicks, v.Uint&0xFFFFFFFF)
	case KindCounter64:
		return refAppendUint(b, tagCounter64, v.Uint)
	case KindNoSuchObject:
		return refAppendTLV(b, tagNoSuchObject, nil)
	case KindNoSuchInstance:
		return refAppendTLV(b, tagNoSuchInstance, nil)
	case KindEndOfMibView:
		return refAppendTLV(b, tagEndOfMibView, nil)
	default:
		panic(fmt.Sprintf("snmp: encoding unknown kind %v", v.Kind))
	}
}

// refReader is a BER cursor.
type refReader struct {
	buf []byte
	pos int
}

func (r *refReader) readTLV() (tag byte, content []byte, err error) {
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

func (r *refReader) done() bool { return r.pos >= len(r.buf) }

func refDecodeInt(content []byte) (int64, error) {
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

func refDecodeUint(content []byte) (uint64, error) {
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

func refDecodeOIDContent(content []byte) (OID, error) {
	if len(content) == 0 {
		return nil, fmt.Errorf("snmp: empty OID")
	}
	out := OID{uint32(content[0] / 40), uint32(content[0] % 40)}
	var cur uint32
	inArc := false
	for _, b := range content[1:] {
		cur = cur<<7 | uint32(b&0x7F)
		inArc = true
		if b&0x80 == 0 {
			out = append(out, cur)
			cur = 0
			inArc = false
		}
	}
	if inArc {
		return nil, fmt.Errorf("snmp: OID ends mid-arc")
	}
	return out, nil
}

func refDecodeValue(tag byte, content []byte) (Value, error) {
	switch tag {
	case tagNull:
		return Value{Kind: KindNull}, nil
	case tagInteger:
		v, err := refDecodeInt(content)
		return Value{Kind: KindInteger, Int: v}, err
	case tagOctetString:
		return Value{Kind: KindOctetString, Bytes: append([]byte(nil), content...)}, nil
	case tagOID:
		o, err := refDecodeOIDContent(content)
		return Value{Kind: KindOID, OID: o}, err
	case tagCounter32:
		v, err := refDecodeUint(content)
		return Value{Kind: KindCounter32, Uint: v}, err
	case tagGauge32:
		v, err := refDecodeUint(content)
		return Value{Kind: KindGauge32, Uint: v}, err
	case tagTimeTicks:
		v, err := refDecodeUint(content)
		return Value{Kind: KindTimeTicks, Uint: v}, err
	case tagCounter64:
		v, err := refDecodeUint(content)
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

// refEncode serialises the message to BER.
func refEncode(m *Message) []byte {
	var vbl []byte
	for _, vb := range m.PDU.VarBinds {
		var one []byte
		one = refAppendOID(one, vb.OID)
		one = refAppendValue(one, vb.Value)
		vbl = refAppendTLV(vbl, tagSequence, one)
	}
	var pdu []byte
	pdu = refAppendInt(pdu, tagInteger, int64(m.PDU.RequestID))
	pdu = refAppendInt(pdu, tagInteger, int64(m.PDU.ErrorStatus))
	pdu = refAppendInt(pdu, tagInteger, int64(m.PDU.ErrorIndex))
	pdu = refAppendTLV(pdu, tagSequence, vbl)

	var body []byte
	body = refAppendInt(body, tagInteger, m.Version)
	body = refAppendTLV(body, tagOctetString, []byte(m.Community))
	body = refAppendTLV(body, byte(m.PDU.Type), pdu)

	return refAppendTLV(nil, tagSequence, body)
}

// refDecodeMessage parses one BER-encoded SNMP message.
func refDecodeMessage(buf []byte) (*Message, error) {
	r := &refReader{buf: buf}
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
	body := &refReader{buf: content}

	m := &Message{}
	tag, c, err := body.readTLV()
	if err != nil || tag != tagInteger {
		return nil, fmt.Errorf("snmp: missing version")
	}
	if m.Version, err = refDecodeInt(c); err != nil {
		return nil, err
	}
	tag, c, err = body.readTLV()
	if err != nil || tag != tagOctetString {
		return nil, fmt.Errorf("snmp: missing community")
	}
	m.Community = string(c)

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

	p := &refReader{buf: c}
	for i, dst := range []*int32{&m.PDU.RequestID, &m.PDU.ErrorStatus, &m.PDU.ErrorIndex} {
		tag, c, err := p.readTLV()
		if err != nil || tag != tagInteger {
			return nil, fmt.Errorf("snmp: missing PDU header field %d", i)
		}
		v, err := refDecodeInt(c)
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
	vbl := &refReader{buf: c}
	for !vbl.done() {
		tag, c, err := vbl.readTLV()
		if err != nil || tag != tagSequence {
			return nil, fmt.Errorf("snmp: bad varbind")
		}
		vb := &refReader{buf: c}
		tag, oc, err := vb.readTLV()
		if err != nil || tag != tagOID {
			return nil, fmt.Errorf("snmp: varbind without OID")
		}
		oid, err := refDecodeOIDContent(oc)
		if err != nil {
			return nil, err
		}
		tag, vc, err := vb.readTLV()
		if err != nil {
			return nil, fmt.Errorf("snmp: varbind without value")
		}
		val, err := refDecodeValue(tag, vc)
		if err != nil {
			return nil, err
		}
		if !vb.done() {
			return nil, fmt.Errorf("snmp: trailing bytes in varbind")
		}
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: oid, Value: val})
	}
	return m, nil
}

// refBindIFMIB is BindIFMIB as it stood before the carved binding, kept
// verbatim as the oracle of TestBindIFMIBMatchesReference: a name, four
// OIDs and four closures per link, registered four columns interleaved.
func refBindIFMIB(mib *MIB, net *netsim.Network, node topo.NodeID) {
	t := net.Topology()
	for _, l := range t.Links() {
		if node != topo.NoNode && l.From != node {
			continue
		}
		l := l
		idx := IfIndex(l.ID)
		name := fmt.Sprintf("%s->%s", t.Name(l.From), t.Name(l.To))
		mib.Register(OIDIfDescr.Append(idx), func() Value { return StringValue(name) })
		mib.Register(OIDIfSpeed.Append(idx), func() Value { return GaugeValue(uint64(l.Capacity)) })
		mib.Register(OIDIfOutOctets.Append(idx), func() Value {
			return Counter32Value(net.Octets(l.ID))
		})
		mib.Register(OIDIfHCOutOctets.Append(idx), func() Value {
			return Counter64Value(net.Octets(l.ID))
		})
	}
}
