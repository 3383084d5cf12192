package snmp

import (
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestOIDParseAndString(t *testing.T) {
	o, err := ParseOID("1.3.6.1.2.1.2.2.1.16.3")
	if err != nil {
		t.Fatal(err)
	}
	if o.String() != "1.3.6.1.2.1.2.2.1.16.3" {
		t.Fatalf("round trip = %q", o.String())
	}
	for _, bad := range []string{"", "1", "x.2", "3.50"} {
		if _, err := ParseOID(bad); err == nil {
			t.Errorf("ParseOID(%q) should fail", bad)
		}
	}
}

func TestOIDCmpAndPrefix(t *testing.T) {
	a := MustOID("1.3.6.1.2.1.2")
	b := MustOID("1.3.6.1.2.1.2.2")
	c := MustOID("1.3.6.1.2.1.3")
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatalf("prefix ordering wrong")
	}
	if b.Cmp(c) != -1 {
		t.Fatalf("sibling ordering wrong")
	}
	if !b.HasPrefix(a) || a.HasPrefix(b) || c.HasPrefix(a) {
		t.Fatalf("HasPrefix wrong")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	msg := &Message{
		Version:   Version2c,
		Community: "public",
		PDU: PDU{
			Type:      GetRequest,
			RequestID: 42,
			VarBinds: []VarBind{
				{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Value{Kind: KindNull}},
				{OID: MustOID("1.3.6.1.2.1.2.2.1.16.3"), Value: Counter64Value(1 << 40)},
				{OID: MustOID("1.3.6.1.2.1.2.2.1.2.1"), Value: StringValue("B->R2")},
				{OID: MustOID("1.3.6.1.2.1.2.2.1.5.1"), Value: GaugeValue(16_000_000)},
				{OID: MustOID("1.3.6.1.2.1.1.9.0"), Value: IntegerValue(-12345)},
			},
		},
	}
	got, err := DecodeMessage(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Community != "public" || got.PDU.RequestID != 42 || got.PDU.Type != GetRequest {
		t.Fatalf("header = %+v", got)
	}
	if len(got.PDU.VarBinds) != 5 {
		t.Fatalf("varbinds = %d", len(got.PDU.VarBinds))
	}
	if got.PDU.VarBinds[1].Value.Uint != 1<<40 || got.PDU.VarBinds[1].Value.Kind != KindCounter64 {
		t.Fatalf("counter64 = %+v", got.PDU.VarBinds[1].Value)
	}
	if string(got.PDU.VarBinds[2].Value.Bytes) != "B->R2" {
		t.Fatalf("string = %+v", got.PDU.VarBinds[2].Value)
	}
	if got.PDU.VarBinds[4].Value.Int != -12345 {
		t.Fatalf("negative integer = %+v", got.PDU.VarBinds[4].Value)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x30},
		{0x02, 0x01, 0x01},       // not a sequence
		{0x30, 0x02, 0xFF, 0xFF}, // junk content
	}
	for i, c := range cases {
		if _, err := DecodeMessage(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Truncations of a valid message must all fail (or decode to the
	// full message only at full length).
	msg := &Message{Version: Version2c, Community: "c", PDU: PDU{Type: GetRequest,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.2"), Value: Value{Kind: KindNull}}}}}
	enc := msg.Encode()
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeMessage(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// Property: random OIDs survive encode/decode inside a varbind.
func TestOIDRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := OID{uint32(rng.Intn(3)), uint32(rng.Intn(40))}
		for i := 0; i < rng.Intn(10); i++ {
			o = append(o, rng.Uint32())
		}
		msg := &Message{Version: Version2c, Community: "x",
			PDU: PDU{Type: GetRequest, VarBinds: []VarBind{{OID: o, Value: Value{Kind: KindNull}}}}}
		got, err := DecodeMessage(msg.Encode())
		if err != nil {
			return false
		}
		return got.PDU.VarBinds[0].OID.Cmp(o) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random integer values survive the codec.
func TestIntegerRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		msg := &Message{Version: Version2c, Community: "x",
			PDU: PDU{Type: GetRequest, VarBinds: []VarBind{
				{OID: MustOID("1.3.6"), Value: IntegerValue(v)}}}}
		got, err := DecodeMessage(msg.Encode())
		if err != nil {
			return false
		}
		return got.PDU.VarBinds[0].Value.Int == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testMIB() *MIB {
	mib := NewMIB()
	mib.Register(MustOID("1.3.6.1.2.1.1.1.0"), func() Value { return StringValue("fibbing-sim") })
	counter := uint64(0)
	mib.Register(MustOID("1.3.6.1.2.1.2.2.1.16.1"), func() Value {
		counter += 100
		return Counter64Value(counter)
	})
	mib.Register(MustOID("1.3.6.1.2.1.2.2.1.16.2"), func() Value { return Counter64Value(7) })
	return mib
}

func TestMIBGetNext(t *testing.T) {
	mib := testMIB()
	next, _, ok := mib.Next(MustOID("1.3.6.1.2.1.2.2.1.16"))
	if !ok || next.String() != "1.3.6.1.2.1.2.2.1.16.1" {
		t.Fatalf("Next = %v, %v", next, ok)
	}
	next, _, ok = mib.Next(next)
	if !ok || next.String() != "1.3.6.1.2.1.2.2.1.16.2" {
		t.Fatalf("Next = %v, %v", next, ok)
	}
	if _, _, ok := mib.Next(MustOID("1.3.6.1.2.1.2.2.1.16.2")); ok {
		t.Fatalf("Next past end should report endOfMibView")
	}
}

func TestAgentGet(t *testing.T) {
	agent := NewAgent("secret", testMIB())
	client := NewClient(DirectTransport{Agent: agent}, "secret")
	vbs, err := client.Get(MustOID("1.3.6.1.2.1.1.1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(vbs[0].Value.Bytes) != "fibbing-sim" {
		t.Fatalf("sysDescr = %+v", vbs[0])
	}
	// Missing OID yields noSuchObject, not an error.
	vbs, err = client.Get(MustOID("1.3.6.1.99.0"))
	if err != nil {
		t.Fatal(err)
	}
	if vbs[0].Value.Kind != KindNoSuchObject {
		t.Fatalf("missing OID = %+v", vbs[0])
	}
}

func TestAgentRejectsBadCommunity(t *testing.T) {
	agent := NewAgent("secret", testMIB())
	client := NewClient(DirectTransport{Agent: agent}, "wrong")
	if _, err := client.Get(MustOID("1.3.6.1.2.1.1.1.0")); err == nil {
		t.Fatalf("bad community accepted")
	}
}

func TestAgentReadOnly(t *testing.T) {
	agent := NewAgent("c", testMIB())
	msg := &Message{Version: Version2c, Community: "c", PDU: PDU{
		Type: SetRequest, RequestID: 1,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: StringValue("x")}},
	}}
	resp, err := DecodeMessage(agent.HandleRequest(msg.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PDU.ErrorStatus != ErrReadOnly {
		t.Fatalf("set accepted: %+v", resp.PDU)
	}
}

func TestClientGetCounter(t *testing.T) {
	agent := NewAgent("c", testMIB())
	client := NewClient(DirectTransport{Agent: agent}, "c")
	v1, err := client.GetCounter(MustOID("1.3.6.1.2.1.2.2.1.16.1"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := client.GetCounter(MustOID("1.3.6.1.2.1.2.2.1.16.1"))
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1+100 {
		t.Fatalf("counter not live: %d then %d", v1, v2)
	}
	if _, err := client.GetCounter(MustOID("1.3.6.1.2.1.1.1.0")); err == nil {
		t.Fatalf("string served as counter")
	}
}

func TestClientWalk(t *testing.T) {
	agent := NewAgent("c", testMIB())
	client := NewClient(DirectTransport{Agent: agent}, "c")
	var seen []string
	err := client.Walk(MustOID("1.3.6.1.2.1.2"), func(vb VarBind) error {
		seen = append(seen, vb.OID.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("walk = %v", seen)
	}
}

func TestClientBulkWalk(t *testing.T) {
	mib := NewMIB()
	root := MustOID("1.3.6.1.2.1.2.2.1.16")
	for i := uint32(1); i <= 50; i++ {
		i := i
		mib.Register(root.Append(i), func() Value { return Counter64Value(uint64(i)) })
	}
	agent := NewAgent("c", mib)
	client := NewClient(DirectTransport{Agent: agent}, "c")
	var count int
	err := client.BulkWalk(root, 16, func(vb VarBind) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("bulk walk saw %d", count)
	}
}

// TestUDPLoopback runs the agent on a real UDP socket and polls it with
// the UDP transport — the same path cmd/fibbingd uses in real-time mode.
func TestUDPLoopback(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	agent := NewAgent("public", testMIB())
	go func() { _ = ServeUDP(conn, agent.HandleRequest) }()

	client := NewClient(UDPTransport{
		Addr:    conn.LocalAddr().String(),
		Timeout: 2 * time.Second,
		Retries: 2,
	}, "public")
	vbs, err := client.Get(MustOID("1.3.6.1.2.1.1.1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(vbs[0].Value.Bytes) != "fibbing-sim" {
		t.Fatalf("over UDP: %+v", vbs[0])
	}
	var walked int
	if err := client.Walk(MustOID("1.3.6.1.2.1.2"), func(VarBind) error {
		walked++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if walked != 2 {
		t.Fatalf("UDP walk = %d", walked)
	}
	walked = 0
	if err := client.BulkWalk(MustOID("1.3.6.1.2.1.2"), 4, func(VarBind) error {
		walked++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if walked != 2 {
		t.Fatalf("UDP bulk walk = %d", walked)
	}
}

func TestUDPTimeout(t *testing.T) {
	// Nothing listens here; the client must fail after retries rather
	// than hang.
	client := NewClient(UDPTransport{
		Addr:    "127.0.0.1:1", // reserved port, nothing listening
		Timeout: 50 * time.Millisecond,
		Retries: 1,
	}, "public")
	start := time.Now()
	_, err := client.Get(MustOID("1.3.6.1.2.1.1.1.0"))
	if err == nil {
		t.Fatalf("expected timeout")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("timeout took too long")
	}
}

func TestCounter32Wraps(t *testing.T) {
	v := Counter32Value(1 << 33)
	if v.Uint != 0 {
		t.Fatalf("Counter32Value did not wrap: %d", v.Uint)
	}
}

func BenchmarkMessageEncode(b *testing.B) {
	msg := &Message{Version: Version2c, Community: "public", PDU: PDU{
		Type:      GetRequest,
		RequestID: 7,
		VarBinds: []VarBind{
			{OID: MustOID("1.3.6.1.2.1.2.2.1.16.3"), Value: Value{Kind: KindNull}},
		},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg.Encode()
	}
}

func BenchmarkAgentRoundTrip(b *testing.B) {
	agent := NewAgent("c", testMIB())
	client := NewClient(DirectTransport{Agent: agent}, "c")
	oid := MustOID("1.3.6.1.2.1.2.2.1.16.2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.GetCounter(oid); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMIBRegisterKeepsOrder registers out of order and re-registers: the
// table stays sorted by insertion (no re-sort per Register), Get finds
// every OID, Next walks them in MIB order, and a re-registration replaces
// the callback without adding an entry, also when it repeats the last OID
// of an in-order run (the append path).
func TestMIBRegisterKeepsOrder(t *testing.T) {
	mib := NewMIB()
	rng := rand.New(rand.NewSource(5))
	root := MustOID("1.3.6.1.2.1.2.2.1")
	const n = 300
	for _, i := range rng.Perm(n) {
		i := uint64(i)
		// Two columns, so that index order and MIB order differ.
		mib.Register(root.Append(uint32(10+i%2), uint32(i)), func() Value { return Counter64Value(i) })
	}
	for i := uint64(0); i < n; i += 7 {
		i := i
		mib.Register(root.Append(uint32(10+i%2), uint32(i)), func() Value { return Counter64Value(i + 1000) })
	}
	if mib.Len() != n {
		t.Fatalf("Len = %d after re-registrations, want %d", mib.Len(), n)
	}
	if !slices.IsSortedFunc(mib.oids, OID.Cmp) {
		t.Fatalf("oids not in MIB order")
	}
	seen := 0
	for cur := root; ; seen++ {
		next, v, ok := mib.Next(cur)
		if !ok {
			break
		}
		if next.Cmp(cur) <= 0 {
			t.Fatalf("Next(%v) = %v: not after it", cur, next)
		}
		want := uint64(next[len(next)-1])
		if want%7 == 0 {
			want += 1000
		}
		if got, ok := mib.Get(next); !ok || got.Uint != want || v.Uint != want {
			t.Fatalf("%v: Get = %v %v, Next value %v, want %d", next, got.Uint, ok, v.Uint, want)
		}
		cur = next
	}
	if seen != n {
		t.Fatalf("walk saw %d objects, want %d", seen, n)
	}
	if _, ok := mib.Get(root.Append(10)); ok {
		t.Fatalf("Get of an unregistered prefix succeeded")
	}
	// Register keeps the OID it is given: the MIB lists that very slice.
	o := root.Append(99, 1)
	mib.Register(o, func() Value { return Counter64Value(1) })
	i, found := slices.BinarySearchFunc(mib.oids, o, OID.Cmp)
	if !found || &mib.oids[i][0] != &o[0] {
		t.Fatalf("MIB copied the OID it was given")
	}

	// In order, every registration appends; the last OID registered a
	// second time replaces its entry instead of appending a twin.
	inOrder := NewMIB()
	for i := uint64(1); i <= n; i++ {
		inOrder.Register(root.Append(10, uint32(i)), func() Value { return Counter64Value(i) })
	}
	last := root.Append(10, n)
	inOrder.Register(last, func() Value { return Counter64Value(2 * n) })
	if inOrder.Len() != n {
		t.Fatalf("Len = %d after re-registering the last OID, want %d", inOrder.Len(), n)
	}
	if v, ok := inOrder.Get(last); !ok || v.Uint != 2*n {
		t.Fatalf("Get(%v) = %v %v after re-registration, want %d", last, v.Uint, ok, 2*n)
	}
	if !slices.IsSortedFunc(inOrder.oids, OID.Cmp) {
		t.Fatalf("oids not in MIB order")
	}
}

// counterMIB serves n Counter64 objects valued 1000+index under
// ifHCOutOctets.
func counterMIB(n int) (*MIB, []OID) {
	mib := NewMIB()
	oids := make([]OID, n)
	for i := range oids {
		v := uint64(1000 + i)
		oids[i] = OIDIfHCOutOctets.Append(uint32(i + 1))
		mib.Register(oids[i], func() Value { return Counter64Value(v) })
	}
	return mib, oids
}

// TestAgentTooBig: a GET or GETNEXT with more varbinds than MaxVarBinds
// is answered tooBig with an empty varbind list (RFC 3416 §4.2.1); one at
// the cap is served, a GET also when the agent has resolved its list
// before. A GETBULK response is cut at the cap (RFC 3416 §4.2.3), its
// non-repeaters too.
func TestAgentTooBig(t *testing.T) {
	mib, oids := counterMIB(9)
	agent := NewAgent("c", mib)
	agent.MaxVarBinds = 8
	for _, typ := range []PDUType{GetRequest, GetNextRequest} {
		for _, n := range []int{8, 9} {
			req := &Message{Version: Version2c, Community: "c", PDU: PDU{Type: typ, RequestID: 3}}
			for _, o := range oids[:n] {
				req.PDU.VarBinds = append(req.PDU.VarBinds, VarBind{OID: o})
			}
			resp, err := DecodeMessage(agent.HandleRequest(req.Encode()))
			if err != nil {
				t.Fatal(err)
			}
			wantStatus, wantVBs := int32(ErrNoError), n
			if n > agent.MaxVarBinds {
				wantStatus, wantVBs = ErrTooBig, 0
			}
			if resp.PDU.ErrorStatus != wantStatus || resp.PDU.ErrorIndex != 0 || len(resp.PDU.VarBinds) != wantVBs || resp.PDU.RequestID != 3 {
				t.Fatalf("%v with %d varbinds at cap %d: %+v", typ, n, agent.MaxVarBinds, resp.PDU)
			}
		}
	}
	client := NewClient(DirectTransport{Agent: agent}, "c")
	if _, err := client.Get(oids...); err == nil || !strings.Contains(err.Error(), "error status 1") {
		t.Fatalf("Get past the cap: %v", err)
	}
	agent.MaxVarBinds = 9
	if _, err := client.Get(oids...); err != nil {
		t.Fatalf("Get at the raised cap: %v", err)
	}
	agent.MaxVarBinds = 8 // the list is resolved now: the cap holds on a hit too
	if _, err := client.Get(oids...); err == nil || !strings.Contains(err.Error(), "error status 1") {
		t.Fatalf("Get of a resolved list past the cap: %v", err)
	}

	agent.MaxVarBinds = 5
	for _, bulk := range []struct{ nonRep, maxRep, n int }{{20, 1, 20}, {3, 4, 6}, {0, 30, 1}} {
		req := &Message{Version: Version2c, Community: "c", PDU: PDU{
			Type: GetBulkRequest, RequestID: 4, ErrorStatus: int32(bulk.nonRep), ErrorIndex: int32(bulk.maxRep)}}
		for i := range bulk.n {
			req.PDU.VarBinds = append(req.PDU.VarBinds, VarBind{OID: oids[i%len(oids)]})
		}
		resp, err := DecodeMessage(agent.HandleRequest(req.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		if resp.PDU.ErrorStatus != ErrNoError || len(resp.PDU.VarBinds) != agent.MaxVarBinds {
			t.Fatalf("GETBULK of %d varbinds (%d non-repeaters, %d repetitions) at cap %d: status %d, %d varbinds",
				bulk.n, bulk.nonRep, bulk.maxRep, agent.MaxVarBinds, resp.PDU.ErrorStatus, len(resp.PDU.VarBinds))
		}
	}
}

// stuckTransport answers every request with the same varbind, under the
// request's ID: an agent whose GETNEXT never advances.
type stuckTransport struct {
	vb       VarBind
	requests int
}

func (s *stuckTransport) RoundTrip(req []byte) ([]byte, error) {
	s.requests++
	m, err := DecodeMessage(req)
	if err != nil {
		return nil, err
	}
	return (&Message{Version: Version2c, Community: m.Community, PDU: PDU{
		Type: GetResponse, RequestID: m.PDU.RequestID, VarBinds: []VarBind{s.vb}}}).Encode(), nil
}

// TestWalkFailsOnOIDNotIncreasing: against an agent that answers every
// request with the same OID, Walk and BulkWalk visit it once and fail
// with "OID not increasing" on the next answer, as net-snmp's snmpwalk
// does, instead of going on for ever.
func TestWalkFailsOnOIDNotIncreasing(t *testing.T) {
	root := MustOID("1.3.6.1.2.1.2")
	for name, walk := range map[string]func(*Client, func(VarBind) error) error{
		"walk":      func(c *Client, fn func(VarBind) error) error { return c.Walk(root, fn) },
		"bulk-walk": func(c *Client, fn func(VarBind) error) error { return c.BulkWalk(root, 4, fn) },
	} {
		tr := &stuckTransport{vb: VarBind{OID: root.Append(2, 1, 16, 1), Value: Counter64Value(1)}}
		visited := 0
		err := walk(NewClient(tr, "c"), func(VarBind) error { visited++; return nil })
		if err == nil || !strings.Contains(err.Error(), "OID not increasing") || visited != 1 || tr.requests != 2 {
			t.Fatalf("%s: %v after %d visits and %d requests", name, err, visited, tr.requests)
		}
	}
}

// countingTransport counts the requests it forwards and their varbinds.
type countingTransport struct {
	next     Transport
	requests int
	most     int
}

func (c *countingTransport) RoundTrip(req []byte) ([]byte, error) {
	m, err := DecodeMessage(req)
	if err != nil {
		return nil, err
	}
	c.requests++
	c.most = max(c.most, len(m.PDU.VarBinds))
	return c.next.RoundTrip(req)
}

// TestGetCountersChunks: a prepared poll of a long list goes out in
// ceil(n/getChunk) GETs, none of which trips the default agent's tooBig
// guard; against an agent with a smaller cap every OID of a too-big
// request reports it, and the requests under the cap are still served.
func TestGetCountersChunks(t *testing.T) {
	if getChunk >= NewAgent("", nil).MaxVarBinds {
		t.Fatalf("getChunk %d is not under the default MaxVarBinds", getChunk)
	}
	const n = 2*getChunk + 5
	mib, oids := counterMIB(n)
	agent := NewAgent("c", mib)
	tr := &countingTransport{next: DirectTransport{Agent: agent}}
	client := NewClient(tr, "c")
	vals, errs := make([]uint64, n), make([]error, n)
	client.PrepareCounters(oids).Read(vals, errs)
	for i := range oids {
		if errs[i] != nil || vals[i] != uint64(1000+i) {
			t.Fatalf("counter %d = %d, %v", i, vals[i], errs[i])
		}
	}
	if tr.requests != 3 || tr.most != getChunk {
		t.Fatalf("%d counters took %d requests of at most %d varbinds, want 3 of %d", n, tr.requests, tr.most, getChunk)
	}

	agent.MaxVarBinds = 10 // the two full chunks are too big, the 5-counter tail is not
	client.PrepareCounters(oids).Read(vals, errs)
	for i := range oids {
		if tooBig := i < 2*getChunk; tooBig != (errs[i] != nil) {
			t.Fatalf("counter %d at cap 10: %d, %v", i, vals[i], errs[i])
		} else if tooBig && (vals[i] != 0 || !strings.Contains(errs[i].Error(), "error status 1")) {
			t.Fatalf("counter %d at cap 10: %d, %v", i, vals[i], errs[i])
		}
	}
}

// tamperTransport rewrites the decoded response before the client sees it.
type tamperTransport struct {
	next   Transport
	tamper func(*Message)
}

func (tt tamperTransport) RoundTrip(req []byte) ([]byte, error) {
	raw, err := tt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, err
	}
	tt.tamper(m)
	return m.Encode(), nil
}

// TestGetVerifiesEchoedOIDs: a response whose names are not the requested
// ones in the requested order — two swapped, one dropped, one renamed —
// fails the whole request; a noSuchObject or a string fails only its OID.
func TestGetVerifiesEchoedOIDs(t *testing.T) {
	mib, oids := counterMIB(6)
	mib.Register(oids[2], func() Value { return StringValue("not a counter") })
	oids = append(oids, OIDIfHCOutOctets.Append(999)) // not served
	direct := DirectTransport{Agent: NewAgent("c", mib)}
	vals, errs := make([]uint64, len(oids)), make([]error, len(oids))

	NewClient(direct, "c").PrepareCounters(oids).Read(vals, errs)
	for i := range oids {
		if bad := i == 2 || i == 6; bad != (errs[i] != nil) || (!bad && vals[i] != uint64(1000+i)) {
			t.Fatalf("honest agent, counter %d = %d, %v", i, vals[i], errs[i])
		}
	}

	for name, tamper := range map[string]func(*Message){
		"swapped": func(m *Message) { m.PDU.VarBinds[0], m.PDU.VarBinds[1] = m.PDU.VarBinds[1], m.PDU.VarBinds[0] },
		"short":   func(m *Message) { m.PDU.VarBinds = m.PDU.VarBinds[:len(m.PDU.VarBinds)-1] },
		"renamed": func(m *Message) { m.PDU.VarBinds[4].OID = OIDIfOutOctets.Append(5) },
	} {
		client := NewClient(tamperTransport{next: direct, tamper: tamper}, "c")
		client.PrepareCounters(oids).Read(vals, errs)
		for i := range oids {
			if errs[i] == nil || vals[i] != 0 {
				t.Fatalf("%s response credited counter %d = %d, %v", name, i, vals[i], errs[i])
			}
		}
		if _, err := client.Get(oids...); err == nil {
			t.Fatalf("Get accepted a %s response", name)
		}
	}
}

// TestConcurrentAgentAndClient hammers one agent and one client from
// several goroutines — one prepared poll shared by two, Get, Walk and raw
// HandleRequest at once, with Register running beside them — so that the
// race detector sees the pooled exchange scratch and the MIB's tables,
// resolved GETs included, shared.
func TestConcurrentAgentAndClient(t *testing.T) {
	const n = getChunk + 10
	mib, oids := counterMIB(n)
	agent := NewAgent("c", mib)
	client := NewClient(DirectTransport{Agent: agent}, "c")
	poll := client.PrepareCounters(oids)
	raw := (&Message{Version: Version2c, Community: "c",
		PDU: PDU{Type: GetRequest, RequestID: 1, VarBinds: []VarBind{{OID: oids[3]}}}}).Encode()
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals, errs := make([]uint64, n), make([]error, n)
			for r := 0; r < rounds; r++ {
				switch g % 4 {
				case 0:
					poll.Read(vals, errs)
					for i := range oids {
						if errs[i] != nil || vals[i] != uint64(1000+i) {
							t.Errorf("goroutine %d: counter %d = %d, %v", g, i, vals[i], errs[i])
							return
						}
					}
				case 1:
					vbs, err := client.Get(oids[g], oids[g+1])
					if err != nil || vbs[1].Value.Uint != uint64(1000+g+1) {
						t.Errorf("goroutine %d: Get = %v, %v", g, vbs, err)
						return
					}
				case 2:
					seen := 0
					if err := client.Walk(OIDIfHCOutOctets, func(VarBind) error { seen++; return nil }); err != nil || seen < n {
						t.Errorf("goroutine %d: walk saw %d, %v", g, seen, err)
						return
					}
				case 3:
					resp, err := DecodeMessage(agent.HandleRequest(raw))
					if err != nil || resp.PDU.VarBinds[0].Value.Uint != 1003 {
						t.Errorf("goroutine %d: raw request: %v, %v", g, resp, err)
						return
					}
					mib.Register(OIDIfHCOutOctets.Append(uint32(5000+g*rounds+r)), func() Value { return Counter64Value(0) })
				}
			}
		}(g)
	}
	wg.Wait()
}
