package snmp

import (
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
	resp := d.Agent.HandleRequest(req)
	if resp == nil {
		return nil, fmt.Errorf("snmp: agent dropped request")
	}
	return resp, nil
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
	raw, err := c.Transport.RoundTrip(x.buf)
	if err != nil {
		return nil, err
	}
	resp, err := x.in.decode(raw)
	if err != nil {
		return nil, err
	}
	if resp.PDU.Type != GetResponse {
		return nil, fmt.Errorf("snmp: unexpected response type %v", resp.PDU.Type)
	}
	if resp.PDU.RequestID != req.PDU.RequestID {
		return nil, fmt.Errorf("snmp: response ID %d != request %d", resp.PDU.RequestID, req.PDU.RequestID)
	}
	if resp.PDU.ErrorStatus != ErrNoError {
		return nil, fmt.Errorf("snmp: error status %d at index %d", resp.PDU.ErrorStatus, resp.PDU.ErrorIndex)
	}
	return resp, nil
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

// getChunk is how many counters GetCounters asks for in one GET: under
// the agent's default MaxVarBinds (256), and small enough that a response
// of IF-MIB Counter64 varbinds (<= 28 bytes each) fits a 1472-byte
// datagram with its headers.
const getChunk = 48

// GetCounters fetches oids[i] as a uint64 (Counter32/64, Gauge, TimeTicks,
// Integer) into vals[i], or its failure into errs[i], for every i (vals
// and errs are as long as oids), in as few GET requests as getChunk
// allows. A request that fails as a whole — transport, error status, a
// response that does not echo the names asked — fails each of its OIDs
// with that error; a value that is not a counter fails only its own.
// Steady state allocates nothing per counter.
func (c *Client) GetCounters(oids []OID, vals []uint64, errs []error) {
	x := exchanges.Get().(*exchange)
	defer exchanges.Put(x)
	for lo := 0; lo < len(oids); lo += getChunk {
		hi := min(lo+getChunk, len(oids))
		vbs, err := c.get(x, oids[lo:hi])
		for i := lo; i < hi; i++ {
			if err != nil {
				vals[i], errs[i] = 0, err
				continue
			}
			vals[i], errs[i] = counterOf(vbs[i-lo])
		}
	}
}

// GetCounter fetches a single counter OID as uint64 (Counter32/64/Gauge).
func (c *Client) GetCounter(oid OID) (uint64, error) {
	var val [1]uint64
	var err [1]error
	c.GetCounters([]OID{oid}, val[:], err[:])
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

// Walk visits every object under root in MIB order using GetNext.
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
		if err := fn(vb); err != nil {
			return err
		}
		cur = vb.OID
	}
}

// BulkWalk visits every object under root using GetBulk (fewer round
// trips than Walk).
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
		progressed := false
		for _, vb := range resp.PDU.VarBinds {
			if vb.Value.Kind == KindEndOfMibView || !vb.OID.HasPrefix(root) {
				return nil
			}
			if err := fn(vb); err != nil {
				return err
			}
			cur = vb.OID
			progressed = true
		}
		if !progressed {
			return nil
		}
	}
}
