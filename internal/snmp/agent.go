package snmp

import (
	"net"
	"slices"
	"sync"

	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

// MIB is a dynamic object tree: OIDs bound to objects whose values are
// read at query time (so counters read live state).
type MIB struct {
	mu   sync.RWMutex
	oids []OID    // sorted; Get and Next binary-search it
	objs []object // objs[i] serves oids[i]
}

// object is what the MIB serves at one OID: a value read when asked.
type object interface{ value() Value }

// funcObject serves a callback given to Register.
type funcObject func() Value

func (f funcObject) value() Value { return f() }

// NewMIB returns an empty MIB.
func NewMIB() *MIB {
	return &MIB{}
}

// Register binds an OID to a callback. Re-registering replaces. The MIB
// keeps oid as it is given, without a copy: the caller must not modify it
// afterwards. Registering in MIB order appends; out of order, each
// registration is an insert.
func (m *MIB) Register(oid OID, fn func() Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insert(oid, funcObject(fn))
}

// insert binds oid to obj; the caller holds m.mu. An OID past the last
// one is appended, any other one is placed by binary search, replacing
// an equal one.
func (m *MIB) insert(oid OID, obj object) {
	if n := len(m.oids); n == 0 || m.oids[n-1].Cmp(oid) < 0 {
		m.oids = append(m.oids, oid)
		m.objs = append(m.objs, obj)
		return
	}
	i, found := slices.BinarySearchFunc(m.oids, oid, OID.Cmp)
	if found {
		m.objs[i] = obj
		return
	}
	m.oids = slices.Insert(m.oids, i, oid)
	m.objs = slices.Insert(m.objs, i, obj)
}

// Get returns the value at an exact OID.
func (m *MIB) Get(oid OID) (Value, bool) {
	m.mu.RLock()
	i, found := slices.BinarySearchFunc(m.oids, oid, OID.Cmp)
	var obj object
	if found {
		obj = m.objs[i]
	}
	m.mu.RUnlock()
	if !found {
		return Value{Kind: KindNoSuchObject}, false
	}
	return obj.value(), true
}

// Next returns the first OID strictly after the given one, MIB-ordered.
func (m *MIB) Next(oid OID) (OID, Value, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, found := slices.BinarySearchFunc(m.oids, oid, OID.Cmp)
	if found {
		i++
	}
	if i == len(m.oids) {
		return nil, Value{Kind: KindEndOfMibView}, false
	}
	return m.oids[i], m.objs[i].value(), true
}

// Len returns the number of registered objects.
func (m *MIB) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.oids)
}

// Agent answers SNMP requests against a MIB.
type Agent struct {
	Community string
	MIB       *MIB
	// MaxVarBinds caps response size (tooBig guard): a GET or GETNEXT
	// carrying more varbinds is answered tooBig with an empty list
	// (RFC 3416 §4.2.1), a GETBULK stops repeating at the cap.
	MaxVarBinds int
}

// NewAgent builds an agent with the given community string.
func NewAgent(community string, mib *MIB) *Agent {
	return &Agent{Community: community, MIB: mib, MaxVarBinds: 256}
}

// HandleRequest processes one encoded request and returns the encoded
// response (nil for undecodable or unauthenticated requests, which SNMP
// agents silently drop).
func (a *Agent) HandleRequest(req []byte) []byte {
	x := exchanges.Get().(*exchange)
	defer exchanges.Put(x)
	msg, err := x.in.decode(req)
	if err != nil {
		return nil
	}
	if msg.Version != Version2c || msg.Community != a.Community {
		return nil // silent drop, as real agents do for bad communities
	}
	resp := &x.out
	resp.Version, resp.Community = Version2c, a.Community
	resp.PDU = PDU{Type: GetResponse, RequestID: msg.PDU.RequestID, VarBinds: resp.PDU.VarBinds[:0]}
	switch msg.PDU.Type {
	case GetRequest:
		if len(msg.PDU.VarBinds) > a.MaxVarBinds {
			resp.PDU.ErrorStatus = ErrTooBig
			break
		}
		for _, vb := range msg.PDU.VarBinds {
			v, ok := a.MIB.Get(vb.OID)
			if !ok {
				v = Value{Kind: KindNoSuchObject}
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: v})
		}
	case GetNextRequest:
		if len(msg.PDU.VarBinds) > a.MaxVarBinds {
			resp.PDU.ErrorStatus = ErrTooBig
			break
		}
		for _, vb := range msg.PDU.VarBinds {
			next, v, ok := a.MIB.Next(vb.OID)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds,
					VarBind{OID: vb.OID, Value: Value{Kind: KindEndOfMibView}})
				continue
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: next, Value: v})
		}
	case GetBulkRequest:
		nonRep := int(msg.PDU.ErrorStatus)
		maxRep := int(msg.PDU.ErrorIndex)
		if maxRep < 1 {
			maxRep = 1
		}
		for i, vb := range msg.PDU.VarBinds {
			if i < nonRep {
				next, v, ok := a.MIB.Next(vb.OID)
				if !ok {
					resp.PDU.VarBinds = append(resp.PDU.VarBinds,
						VarBind{OID: vb.OID, Value: Value{Kind: KindEndOfMibView}})
					continue
				}
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: next, Value: v})
				continue
			}
			cur := vb.OID
			for r := 0; r < maxRep && len(resp.PDU.VarBinds) < a.MaxVarBinds; r++ {
				next, v, ok := a.MIB.Next(cur)
				if !ok {
					resp.PDU.VarBinds = append(resp.PDU.VarBinds,
						VarBind{OID: cur, Value: Value{Kind: KindEndOfMibView}})
					break
				}
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: next, Value: v})
				cur = next
			}
		}
	case SetRequest:
		// Read-only agent.
		resp.PDU.ErrorStatus = ErrReadOnly
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, msg.PDU.VarBinds...)
	default:
		resp.PDU.ErrorStatus = ErrGenErr
	}
	return resp.Encode()
}

// ServeUDP answers requests on a packet connection with handle (an
// Agent's HandleRequest, or a wrapper that guards it) until the
// connection is closed. Intended to run in its own goroutine.
func ServeUDP(conn net.PacketConn, handle func([]byte) []byte) error {
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			return err
		}
		if resp := handle(buf[:n]); resp != nil {
			if _, err := conn.WriteTo(resp, addr); err != nil {
				return err
			}
		}
	}
}

// --- IF-MIB binding ----------------------------------------------------

// Standard IF-MIB column OIDs (1.3.6.1.2.1.2.2.1.<col>.<ifIndex>).
var (
	OIDIfDescr     = MustOID("1.3.6.1.2.1.2.2.1.2")
	OIDIfSpeed     = MustOID("1.3.6.1.2.1.2.2.1.5")
	OIDIfOutOctets = MustOID("1.3.6.1.2.1.2.2.1.16")
	// OIDIfHCOutOctets is the 64-bit high-capacity counter from the
	// ifXTable (1.3.6.1.2.1.31.1.1.1.10).
	OIDIfHCOutOctets = MustOID("1.3.6.1.2.1.31.1.1.1.10")
)

// IfIndex maps a directed topology link to its SNMP interface index on the
// transmitting router (1-based, as ifIndex must be).
func IfIndex(l topo.LinkID) uint32 { return uint32(l) + 1 }

// BindIFMIB registers the IF-MIB subset for every directed link whose
// transmitting side is the given router, reading live octet counters from
// the fluid simulator. If node is topo.NoNode, all links are exported (a
// single network-wide agent, which is what the demo controller polls).
//
// A bind allocates per call, not per link: the rows are cut from one
// slice, the OIDs from one array, and each column object is a row seen
// through the column's type. The columns go in one at a time, each in
// ifIndex order, which is MIB order, so every OID is an append.
func BindIFMIB(mib *MIB, net *netsim.Network, node topo.NodeID) {
	t := net.Topology()
	bound := func(l topo.Link) bool { return node == topo.NoNode || l.From == node }
	n := 0
	for id := range t.NumLinks() {
		if bound(t.Link(topo.LinkID(id))) {
			n++
		}
	}
	rows := make([]ifRow, 0, n)
	for id := range t.NumLinks() {
		if l := t.Link(topo.LinkID(id)); bound(l) {
			rows = append(rows, ifRow{net: net, link: l.ID, speed: uint64(l.Capacity)})
		}
	}
	width := 0
	for _, c := range ifColumns {
		width += len(c.oid) + 1
	}
	arcs := make([]uint32, 0, n*width)

	mib.mu.Lock()
	defer mib.mu.Unlock()
	mib.oids = slices.Grow(mib.oids, len(ifColumns)*n)
	mib.objs = slices.Grow(mib.objs, len(ifColumns)*n)
	for _, c := range ifColumns {
		for i := range rows {
			start := len(arcs)
			arcs = append(append(arcs, c.oid...), IfIndex(rows[i].link))
			mib.insert(OID(arcs[start:len(arcs):len(arcs)]), c.object(&rows[i]))
		}
	}
}

// ifRow is one bound interface, read by its four IF-MIB columns.
type ifRow struct {
	net   *netsim.Network
	link  topo.LinkID
	speed uint64 // bit/s
}

// The columns of a row: each type is an object over the same ifRow.
type (
	ifDescr       ifRow
	ifSpeed       ifRow
	ifOutOctets   ifRow
	ifHCOutOctets ifRow
)

// ifColumns lists the columns in MIB order.
var ifColumns = [...]struct {
	oid    OID
	object func(*ifRow) object
}{
	{OIDIfDescr, func(r *ifRow) object { return (*ifDescr)(r) }},
	{OIDIfSpeed, func(r *ifRow) object { return (*ifSpeed)(r) }},
	{OIDIfOutOctets, func(r *ifRow) object { return (*ifOutOctets)(r) }},
	{OIDIfHCOutOctets, func(r *ifRow) object { return (*ifHCOutOctets)(r) }},
}

// value names the link "from->to", built when read.
func (r *ifDescr) value() Value {
	t := r.net.Topology()
	l := t.Link(r.link)
	from, to := t.Name(l.From), t.Name(l.To)
	name := make([]byte, 0, len(from)+len("->")+len(to))
	return Value{Kind: KindOctetString, Bytes: append(append(append(name, from...), "->"...), to...)}
}

func (r *ifSpeed) value() Value { return GaugeValue(r.speed) }

func (r *ifOutOctets) value() Value { return Counter32Value(r.net.Octets(r.link)) }

func (r *ifHCOutOctets) value() Value { return Counter64Value(r.net.Octets(r.link)) }
