package snmp

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Transport delivers one encoded request and returns the encoded response.
// RoundTrip must not keep req past its return: the client reuses it.
type Transport interface {
	RoundTrip(req []byte) ([]byte, error)
}

// DirectTransport calls an agent in-process — the deterministic path used
// inside the discrete-event simulation (the PDUs are still fully encoded
// and decoded).
type DirectTransport struct {
	Agent *Agent
}

// RoundTrip implements Transport.
func (d DirectTransport) RoundTrip(req []byte) ([]byte, error) {
	return d.appendRoundTrip(nil, req)
}

// appendRoundTrip is RoundTrip with the response appended to dst, so a
// client passes scratch of its own instead of taking a fresh buffer per
// request.
func (d DirectTransport) appendRoundTrip(dst, req []byte) ([]byte, error) {
	resp := d.Agent.appendResponse(dst, req)
	if resp == nil {
		return nil, fmt.Errorf("snmp: agent dropped request")
	}
	return resp, nil
}

// appendTransport is a Transport that can append its response to
// scratch the caller owns.
type appendTransport interface {
	appendRoundTrip(dst, req []byte) ([]byte, error)
}

// UDPTransport sends requests over a UDP socket with timeout and retries.
type UDPTransport struct {
	Addr    string
	Timeout time.Duration
	Retries int
}

// RoundTrip implements Transport.
func (u UDPTransport) RoundTrip(req []byte) ([]byte, error) {
	timeout := u.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	tries := u.Retries + 1
	var lastErr error
	for i := 0; i < tries; i++ {
		resp, err := u.once(req, timeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("snmp: request failed after %d tries: %w", tries, lastErr)
}

func (u UDPTransport) once(req []byte, timeout time.Duration) ([]byte, error) {
	conn, err := net.Dial("udp", u.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(req); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return out, nil
}

// Client issues SNMP queries over a Transport.
type Client struct {
	Transport Transport
	Community string
	reqID     atomic.Int32
}

// NewClient builds a client.
func NewClient(tr Transport, community string) *Client {
	return &Client{Transport: tr, Community: community}
}

// roundTrip sends pdu, asking for oids, and checks the answer's envelope.
// The request is built in x.out and the answer parsed through x.in, so the
// returned message lives in x (see decoder).
func (c *Client) roundTrip(x *exchange, pdu PDU, oids []OID) (*Message, error) {
	req := &x.out
	req.Version, req.Community = Version2c, c.Community
	pdu.RequestID = c.reqID.Add(1)
	pdu.VarBinds = req.PDU.VarBinds[:0]
	req.PDU = pdu
	for _, o := range oids {
		req.PDU.VarBinds = append(req.PDU.VarBinds, VarBind{OID: o, Value: Value{Kind: KindNull}})
	}
	x.buf = req.appendTo(x.buf[:0])
	raw, err := c.send(x)
	if err != nil {
		return nil, err
	}
	resp, err := x.in.decode(raw)
	if err != nil {
		return nil, err
	}
	if err := checkResponse(&resp.PDU, req.PDU.RequestID); err != nil {
		return nil, err
	}
	return resp, nil
}

// checkResponse checks the envelope of a response to the request id:
// its type, its request ID and its error status, in that order.
func checkResponse(pdu *PDU, id int32) error {
	if pdu.Type != GetResponse {
		return fmt.Errorf("snmp: unexpected response type %v", pdu.Type)
	}
	if pdu.RequestID != id {
		return fmt.Errorf("snmp: response ID %d != request %d", pdu.RequestID, id)
	}
	if pdu.ErrorStatus != ErrNoError {
		return fmt.Errorf("snmp: error status %d at index %d", pdu.ErrorStatus, pdu.ErrorIndex)
	}
	return nil
}

// send hands the request in x.buf to the transport and returns the raw
// response, which is valid until x's next exchange.
func (c *Client) send(x *exchange) ([]byte, error) {
	if t, ok := c.Transport.(appendTransport); ok {
		raw, err := t.appendRoundTrip(x.raw[:0], x.buf)
		if raw != nil {
			x.raw = raw
		}
		return raw, err
	}
	return c.Transport.RoundTrip(x.buf)
}

// get is one GET exchange. A response must echo the requested names in
// order (RFC 3416 §4.2.1): with many counters per response, an agent that
// reorders or drops one would otherwise credit a value to the wrong name.
func (c *Client) get(x *exchange, oids []OID) ([]VarBind, error) {
	resp, err := c.roundTrip(x, PDU{Type: GetRequest}, oids)
	if err != nil {
		return nil, err
	}
	if len(resp.PDU.VarBinds) != len(oids) {
		return nil, fmt.Errorf("snmp: got %d varbinds, want %d", len(resp.PDU.VarBinds), len(oids))
	}
	for i, o := range oids {
		if got := resp.PDU.VarBinds[i].OID; got.Cmp(o) != 0 {
			return nil, fmt.Errorf("snmp: varbind %d answers %v, asked %v", i, got, o)
		}
	}
	return resp.PDU.VarBinds, nil
}

// Get fetches the values of the given OIDs.
func (c *Client) Get(oids ...OID) ([]VarBind, error) {
	return c.get(new(exchange), oids) // the caller keeps the varbinds
}

// getChunk is how many counters a CounterPoll asks for in one GET: under
// the agent's default MaxVarBinds (256), and small enough that a response
// of IF-MIB Counter64 varbinds (<= 28 bytes each) fits a 1472-byte
// datagram with its headers.
const getChunk = 48

// CounterPoll is a prepared GET of a fixed list of counters, read as
// often as asked: the varbind list of each request is encoded once, by
// PrepareCounters, and a read writes only the envelope in front of it.
// A CounterPoll is read-only once prepared, so goroutines may share it.
type CounterPoll struct {
	c     *Client
	oids  []OID
	names [][]byte // names[i]: oids[i]'s encoded content, a slice of vbls
	vbls  []byte   // every request's varbind list content, back to back
	ends  []int    // ends[k]: the end of request k's list in vbls
}

// PrepareCounters prepares a poll of oids in as few GET requests as
// getChunk allows. The poll keeps oids: the caller must not modify them
// afterwards. It allocates per call, not per OID or per request.
func (c *Client) PrepareCounters(oids []OID) *CounterPoll {
	null := Value{Kind: KindNull}
	size := 0
	for _, o := range oids {
		size += tlvLen(tlvLen(oidLen(o)) + tlvLen(valueLen(null)))
	}
	p := &CounterPoll{
		c:     c,
		oids:  oids,
		names: make([][]byte, len(oids)),
		vbls:  make([]byte, 0, size),
		ends:  make([]int, 0, (len(oids)+getChunk-1)/getChunk),
	}
	for i, o := range oids {
		n := oidLen(o)
		p.vbls = appendHeader(p.vbls, tagSequence, tlvLen(n)+tlvLen(valueLen(null)))
		p.vbls = appendOID(p.vbls, o)
		p.names[i] = p.vbls[len(p.vbls)-n : len(p.vbls) : len(p.vbls)]
		p.vbls = appendValue(p.vbls, null)
		if (i+1)%getChunk == 0 || i == len(oids)-1 {
			p.ends = append(p.ends, len(p.vbls))
		}
	}
	return p
}

// Read fetches oids[i] as a uint64 (Counter32/64, Gauge, TimeTicks,
// Integer) into vals[i], or its failure into errs[i], for every i (vals
// and errs are as long as the poll's OIDs). A request that fails as a
// whole — transport, error status, a response that does not echo the
// names asked — fails each of its OIDs with that error; a value that is
// not a counter fails only its own. Over a DirectTransport a steady read
// allocates nothing but the errors it returns.
func (p *CounterPoll) Read(vals []uint64, errs []error) {
	x := exchanges.Get().(*exchange)
	defer exchanges.Put(x)
	start := 0
	for k, end := range p.ends {
		lo := k * getChunk
		hi := min(lo+getChunk, len(p.oids))
		if err := p.get(x, p.vbls[start:end], lo, hi, vals, errs); err != nil {
			for i := lo; i < hi; i++ {
				vals[i], errs[i] = 0, err
			}
		}
		start = end
	}
}

// get is one GET of oids[lo:hi], whose varbind list is vbl. It makes the
// checks Client.get makes, in its order and with its error texts, on a
// response parsed as decoder.decode parses it: every varbind is read
// before the header is judged. An echoed name is checked by its bytes,
// and decoded to arcs only where those differ from the bytes asked (a
// non-minimal encoding of the same OID still passes) or where no name
// was asked. The values go straight to vals and errs; on a returned
// error the caller overwrites them.
func (p *CounterPoll) get(x *exchange, vbl []byte, lo, hi int, vals []uint64, errs []error) error {
	req := Message{Version: Version2c, Community: p.c.Community, PDU: PDU{Type: GetRequest, RequestID: p.c.reqID.Add(1)}}
	x.buf = append(req.appendEnvelope(x.buf[:0], len(vbl)), vbl...)
	raw, err := p.c.send(x)
	if err != nil {
		return err
	}

	d := &x.in
	d.vbs, d.arcs, d.octets = d.vbs[:0], d.arcs[:0], d.octets[:0]
	var resp header
	list, err := resp.read(raw)
	if err != nil {
		return err
	}
	want, got := hi-lo, 0
	mismatch, answer := -1, OID(nil)
	for ; !list.done(); got++ {
		vb, name, err := readVarBindName(&list)
		if err != nil {
			return err
		}
		if got >= want || !bytes.Equal(name, p.names[lo+got]) {
			oid, err := d.decodeOID(name)
			if err != nil {
				return err
			}
			if got < want && mismatch < 0 && oid.Cmp(p.oids[lo+got]) != 0 {
				mismatch, answer = got, oid
			}
		}
		val, err := d.readVarBindValue(&vb)
		if err != nil {
			return err
		}
		if got < want {
			i := lo + got
			vals[i], errs[i] = counterOf(VarBind{OID: p.oids[i], Value: val})
		}
	}
	if err := checkResponse(&resp.pdu, req.PDU.RequestID); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("snmp: got %d varbinds, want %d", got, want)
	}
	if mismatch >= 0 {
		return fmt.Errorf("snmp: varbind %d answers %v, asked %v", mismatch, answer, p.oids[lo+mismatch])
	}
	return nil
}

// GetCounter fetches a single counter OID as uint64 (Counter32/64/Gauge):
// a poll prepared for one read.
func (c *Client) GetCounter(oid OID) (uint64, error) {
	var val [1]uint64
	var err [1]error
	c.PrepareCounters([]OID{oid}).Read(val[:], err[:])
	return val[0], err[0]
}

func counterOf(vb VarBind) (uint64, error) {
	switch v := vb.Value; v.Kind {
	case KindCounter32, KindCounter64, KindGauge32, KindTimeTicks:
		return v.Uint, nil
	case KindInteger:
		return uint64(v.Int), nil
	default:
		return 0, fmt.Errorf("snmp: %v is %v, not a counter", vb.OID, v.Kind)
	}
}

// GetNext fetches the lexicographic successors of the given OIDs.
func (c *Client) GetNext(oids ...OID) ([]VarBind, error) {
	resp, err := c.roundTrip(new(exchange), PDU{Type: GetNextRequest}, oids)
	if err != nil {
		return nil, err
	}
	return resp.PDU.VarBinds, nil
}

// Walk visits every object under root in MIB order using GetNext. An
// answer that does not come after the OID asked fails the walk, as
// net-snmp's snmpwalk does: an agent that repeats itself would otherwise
// keep it going for ever.
func (c *Client) Walk(root OID, fn func(VarBind) error) error {
	cur := root
	for {
		vbs, err := c.GetNext(cur)
		if err != nil {
			return err
		}
		if len(vbs) != 1 {
			return fmt.Errorf("snmp: walk got %d varbinds", len(vbs))
		}
		vb := vbs[0]
		if vb.Value.Kind == KindEndOfMibView || !vb.OID.HasPrefix(root) {
			return nil
		}
		if err := increasing(cur, vb.OID); err != nil {
			return err
		}
		if err := fn(vb); err != nil {
			return err
		}
		cur = vb.OID
	}
}

// BulkWalk visits every object under root using GetBulk (fewer round
// trips than Walk). Like Walk, it fails on an OID that does not come
// after the one before it.
func (c *Client) BulkWalk(root OID, maxRep int, fn func(VarBind) error) error {
	if maxRep < 1 {
		maxRep = 16
	}
	cur := root
	for {
		resp, err := c.roundTrip(new(exchange), PDU{
			Type:        GetBulkRequest,
			ErrorStatus: 0,             // non-repeaters
			ErrorIndex:  int32(maxRep), // max-repetitions
		}, []OID{cur})
		if err != nil {
			return err
		}
		if len(resp.PDU.VarBinds) == 0 {
			return nil
		}
		for _, vb := range resp.PDU.VarBinds {
			if vb.Value.Kind == KindEndOfMibView || !vb.OID.HasPrefix(root) {
				return nil
			}
			if err := increasing(cur, vb.OID); err != nil {
				return err
			}
			if err := fn(vb); err != nil {
				return err
			}
			cur = vb.OID
		}
	}
}

// increasing fails unless next comes after prev in MIB order.
func increasing(prev, next OID) error {
	if next.Cmp(prev) <= 0 {
		return fmt.Errorf("snmp: OID not increasing: %v after %v", next, prev)
	}
	return nil
}
