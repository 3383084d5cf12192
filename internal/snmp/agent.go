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
	// resolved holds GET varbind lists already resolved against the
	// table, keyed by the list's encoded bytes; resolvedBytes is the sum
	// of the keys' lengths. Every insert empties it.
	resolved      map[string][]resolvedVarBind
	resolvedBytes int
}

// resolvedVarBind is one varbind of a resolved GET: the object serving
// its OID (nil if none does) and the OID's canonical encoding, which is
// what a response echoes.
type resolvedVarBind struct {
	obj  object
	name []byte
}

// resolvedBytesPerObject bounds the resolved GET lists a MIB keeps, in
// bytes of list per registered object, so that an agent on a socket
// serving arbitrary requests keeps a table no larger than a multiple of
// its MIB. A varbind asking for an IF-MIB object of an ifIndex below
// 16 384 takes at most 18 bytes, so a poller that asks for every object
// of the MIB once per poll, in requests of any size, fits. A full table keeps what it holds: a list
// that does not fit is answered without being kept, and the lists kept
// before it go on being hit.
const resolvedBytesPerObject = 32

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
	clear(m.resolved)
	m.resolvedBytes = 0
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
	obj := m.lookup(oid)
	m.mu.RUnlock()
	if obj == nil {
		return Value{Kind: KindNoSuchObject}, false
	}
	return obj.value(), true
}

// lookup returns the object at an exact OID, or nil; the caller holds
// m.mu.
func (m *MIB) lookup(oid OID) object {
	if i, found := slices.BinarySearchFunc(m.oids, oid, OID.Cmp); found {
		return m.objs[i]
	}
	return nil
}

// resolvedGet returns the resolved GET whose varbind list is vbl, or nil
// if none is kept; room reports whether the table has room to keep vbl.
func (m *MIB) resolvedGet(vbl []byte) (vbs []resolvedVarBind, room bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.resolved[string(vbl)], m.hasRoom(len(vbl))
}

// hasRoom reports whether n more bytes of list fit the resolved table;
// the caller holds m.mu.
func (m *MIB) hasRoom(n int) bool {
	return m.resolvedBytes+n <= resolvedBytesPerObject*len(m.oids)
}

// resolveGet resolves the GET whose varbind list is vbl, decoded as vbs,
// and keeps it under vbl's bytes, or returns nil if the table has no room
// for it. It allocates per list, not per varbind.
func (m *MIB) resolveGet(vbl []byte, vbs []VarBind) []resolvedVarBind {
	m.mu.Lock()
	defer m.mu.Unlock()
	if out, ok := m.resolved[string(vbl)]; ok {
		return out // resolved by a concurrent miss
	}
	if !m.hasRoom(len(vbl)) {
		return nil
	}
	size := 0
	for i := range vbs {
		size += tlvLen(oidLen(vbs[i].OID))
	}
	names := make([]byte, 0, size)
	out := make([]resolvedVarBind, len(vbs))
	for i, vb := range vbs {
		start := len(names)
		names = appendOID(names, vb.OID)
		out[i] = resolvedVarBind{obj: m.lookup(vb.OID), name: names[start:len(names):len(names)]}
	}
	if m.resolved == nil {
		m.resolved = make(map[string][]resolvedVarBind)
	}
	m.resolved[string(vbl)] = out
	m.resolvedBytes += len(vbl)
	return out
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
	// (RFC 3416 §4.2.1), a GETBULK response is truncated at the cap.
	MaxVarBinds int
}

// NewAgent builds an agent with the given community string.
func NewAgent(community string, mib *MIB) *Agent {
	return &Agent{Community: community, MIB: mib, MaxVarBinds: 256}
}

// HandleRequest processes one encoded request and returns the encoded
// response in a fresh slice (nil for undecodable or unauthenticated
// requests, which SNMP agents silently drop).
func (a *Agent) HandleRequest(req []byte) []byte {
	return a.appendResponse(nil, req)
}

// appendResponse is HandleRequest with the response appended to dst.
//
// A GET's varbind list is resolved once: the MIB keeps, under the list's
// bytes, each varbind's object and its OID's canonical encoding, so a
// request that repeats a list (a poller's, every poll) reads its values
// without decoding, searching or encoding an OID. Every other request
// has its varbind list decoded after the header already read.
func (a *Agent) appendResponse(dst, req []byte) []byte {
	x := exchanges.Get().(*exchange)
	defer exchanges.Put(x)
	var h header
	vbl, err := h.read(req)
	if err != nil || h.version != Version2c || string(h.community) != a.Community {
		return nil // silent drop, as real agents do for bad communities
	}
	resp := &x.out
	resp.Version, resp.Community = Version2c, a.Community
	resp.PDU = PDU{Type: GetResponse, RequestID: h.pdu.RequestID, VarBinds: resp.PDU.VarBinds[:0]}
	if h.pdu.Type == GetRequest {
		return a.appendGet(dst, x, &h, vbl)
	}
	msg, err := x.in.decodeList(&h, vbl)
	if err != nil {
		return nil
	}
	switch msg.PDU.Type {
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
		// A response past MaxVarBinds is truncated, not failed (RFC 3416
		// §4.2.3), non-repeaters and repetitions alike.
		nonRep := int(msg.PDU.ErrorStatus)
		maxRep := int(msg.PDU.ErrorIndex)
		if maxRep < 1 {
			maxRep = 1
		}
		for i, vb := range msg.PDU.VarBinds {
			if len(resp.PDU.VarBinds) >= a.MaxVarBinds {
				break
			}
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
	return resp.appendTo(dst)
}

// appendGet answers the GET whose header is h and whose varbind list is
// vbl into x.out's envelope: from the MIB's resolved list if it keeps
// one, else after decoding the list (an undecodable one is dropped) and
// resolving it, or, when the MIB's table has no room for it, from the
// decoded list as it stands. Each object is read once, in list order; a
// GET of more than MaxVarBinds varbinds is answered tooBig with an empty
// list (RFC 3416 §4.2.1), hit or miss.
func (a *Agent) appendGet(dst []byte, x *exchange, h *header, vbl reader) []byte {
	resp := &x.out
	vbs, room := a.MIB.resolvedGet(vbl.buf)
	if vbs == nil {
		msg, err := x.in.decodeList(h, vbl)
		if err != nil {
			return nil
		}
		if len(msg.PDU.VarBinds) > a.MaxVarBinds {
			resp.PDU.ErrorStatus = ErrTooBig
			return resp.appendTo(dst)
		}
		if room {
			vbs = a.MIB.resolveGet(vbl.buf, msg.PDU.VarBinds)
		}
		if vbs == nil {
			for _, vb := range msg.PDU.VarBinds {
				v, _ := a.MIB.Get(vb.OID)
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: v})
			}
			return resp.appendTo(dst)
		}
	}
	if len(vbs) > a.MaxVarBinds {
		resp.PDU.ErrorStatus = ErrTooBig
		return resp.appendTo(dst)
	}
	size := 0
	for _, rv := range vbs {
		v := Value{Kind: KindNoSuchObject}
		if rv.obj != nil {
			v = rv.obj.value()
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{Value: v})
		size += tlvLen(len(rv.name) + tlvLen(valueLen(v)))
	}
	dst = resp.appendEnvelope(dst, size)
	for i, rv := range vbs {
		v := resp.PDU.VarBinds[i].Value
		dst = appendHeader(dst, tagSequence, len(rv.name)+tlvLen(valueLen(v)))
		dst = append(dst, rv.name...)
		dst = appendValue(dst, v)
	}
	return dst
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
