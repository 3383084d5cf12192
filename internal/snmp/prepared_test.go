package snmp

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// recorder is an in-process transport that keeps a copy of every request
// and every response it passes, after tamper (if set) rewrote the
// response. It hands a client's scratch through (appendRoundTrip), as
// DirectTransport does.
type recorder struct {
	handle      func(dst, req []byte) []byte // nil: the request was dropped
	tamper      func([]byte) []byte
	reqs, resps [][]byte
}

func (r *recorder) RoundTrip(req []byte) ([]byte, error) { return r.appendRoundTrip(nil, req) }

func (r *recorder) appendRoundTrip(dst, req []byte) ([]byte, error) {
	r.reqs = append(r.reqs, slices.Clone(req))
	resp := r.handle(dst, req)
	if resp != nil && r.tamper != nil {
		resp = append(dst[:0], r.tamper(resp)...)
	}
	r.resps = append(r.resps, slices.Clone(resp))
	if resp == nil {
		return nil, fmt.Errorf("snmp: agent dropped request")
	}
	return resp, nil
}

func agentRecorder(a *Agent) *recorder {
	return &recorder{handle: a.appendResponse}
}

func refAgentRecorder(a *Agent) *recorder {
	return &recorder{handle: func(dst, req []byte) []byte {
		resp := refHandleRequest(a, req)
		if resp == nil {
			return nil
		}
		return append(dst, resp...)
	}}
}

// nonMinimalOID is o's OID TLV with a redundant 0x80 in front of its
// third arc: a non-minimal encoding of the same OID.
func nonMinimalOID(o OID) []byte {
	canon := appendOID(nil, o)
	content := append([]byte{canon[2], 0x80}, canon[3:]...)
	return append(appendHeader(nil, tagOID, len(content)), content...)
}

// encodeNonMinimal encodes m with every varbind's OID non-minimal.
func encodeNonMinimal(m *Message) []byte {
	var vbl []byte
	for _, vb := range m.PDU.VarBinds {
		name := nonMinimalOID(vb.OID)
		val := appendValue(nil, vb.Value)
		vbl = append(append(appendHeader(vbl, tagSequence, len(name)+len(val)), name...), val...)
	}
	return append(m.appendEnvelope(nil, len(vbl)), vbl...)
}

// rewrite returns a tamper that decodes a response, lets f change it and
// encodes it again.
func rewrite(f func(*Message)) func([]byte) []byte {
	return func(raw []byte) []byte {
		m, err := DecodeMessage(raw)
		if err != nil {
			return raw
		}
		f(m)
		return m.Encode()
	}
}

// pollTampers are the response rewrites both clients must judge alike:
// the swapped, short and renamed echoes of TestGetVerifiesEchoedOIDs, a
// surplus varbind, a wrong request ID, type and error status, a value
// that is no counter, a truncated message and every name re-encoded
// non-minimally (which must pass).
var pollTampers = []struct {
	name   string
	tamper func([]byte) []byte
}{
	{"swapped", rewrite(func(m *Message) {
		if vbs := m.PDU.VarBinds; len(vbs) > 1 {
			vbs[0], vbs[1] = vbs[1], vbs[0]
		}
	})},
	{"short", rewrite(func(m *Message) {
		if vbs := m.PDU.VarBinds; len(vbs) > 0 {
			m.PDU.VarBinds = vbs[:len(vbs)-1]
		}
	})},
	{"renamed", rewrite(func(m *Message) {
		if vbs := m.PDU.VarBinds; len(vbs) > 4 {
			vbs[4].OID = OIDIfOutOctets.Append(5)
		}
	})},
	{"surplus", rewrite(func(m *Message) {
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: MustOID("1.3.6.1.2.1.1.3.0"), Value: Counter32Value(9)})
	})},
	{"request-id", rewrite(func(m *Message) { m.PDU.RequestID++ })},
	{"type", rewrite(func(m *Message) { m.PDU.Type = GetRequest })},
	{"status", rewrite(func(m *Message) { m.PDU.ErrorStatus, m.PDU.ErrorIndex = ErrGenErr, 2 })},
	{"not-a-counter", rewrite(func(m *Message) {
		if vbs := m.PDU.VarBinds; len(vbs) > 2 {
			vbs[2].Value = Value{Kind: KindOID, OID: MustOID("1.3.6.1.4")}
		}
	})},
	{"truncated", func(raw []byte) []byte { return raw[:len(raw)-1] }},
	{"non-minimal-echo", func(raw []byte) []byte {
		m, err := DecodeMessage(raw)
		if err != nil {
			return raw
		}
		return encodeNonMinimal(m)
	}},
}

// TestPreparedPollMatchesReference holds the prepared poll (CounterPoll
// against Agent) to the poll kept in reference_test.go (refGetCounters
// against refHandleRequest) over the IF-MIB of every zoo topology, fat-tree
// k=8's eleven requests included: every request and every response byte
// for byte, and every value and error text, over repeated polls, a
// Register between polls (a watched counter replaced, a missing one
// added), a lowered MaxVarBinds, the response tampers of pollTampers and a
// GET whose names are encoded non-minimally, which must be echoed
// canonically, hit or miss. Each side has its own MIB, so a counter that
// counts its reads counts the same on both. ~0.1 s, parallel.
func TestPreparedPollMatchesReference(t *testing.T) {
	t.Parallel()
	for name, tp := range ifmibZoo() {
		net := wrappedNetwork(t, tp)
		live := OIDIfHCOutOctets.Append(100_000)
		late := OIDIfHCOutOctets.Append(100_001)
		mibs := [2]*MIB{NewMIB(), NewMIB()}
		for _, mib := range mibs {
			BindIFMIB(mib, net, topo.NoNode)
			reads := uint64(0)
			mib.Register(live, func() Value { reads += 3; return Counter64Value(reads) })
		}
		var oids []OID
		for id := range tp.NumLinks() {
			idx := IfIndex(topo.LinkID(id))
			oids = append(oids, OIDIfHCOutOctets.Append(idx))
			if id%7 == 3 {
				oids = append(oids, OIDIfDescr.Append(idx), OIDIfSpeed.Append(idx), OIDIfOutOctets.Append(idx))
			}
		}
		oids = append(oids, live, late, OIDIfHCOutOctets.Append(100_002))
		oids = append(oids[len(oids)/2:], oids[:len(oids)/2]...) // the odd ones in a middle request

		gotAgent, refAgent := NewAgent("c", mibs[0]), NewAgent("c", mibs[1])
		gotRec, refRec := agentRecorder(gotAgent), refAgentRecorder(refAgent)
		gotClient, refClient := NewClient(gotRec, "c"), NewClient(refRec, "c")
		poll := gotClient.PrepareCounters(oids)
		gotVals, gotErrs := make([]uint64, len(oids)), make([]error, len(oids))
		refVals, refErrs := make([]uint64, len(oids)), make([]error, len(oids))
		compare := func(label string) {
			t.Helper()
			gotRec.reqs, gotRec.resps, refRec.reqs, refRec.resps = nil, nil, nil, nil
			poll.Read(gotVals, gotErrs)
			refGetCounters(refClient, oids, refVals, refErrs)
			label = name + "/" + label
			if len(gotRec.reqs) != len(refRec.reqs) {
				t.Fatalf("%s: %d requests, reference %d", label, len(gotRec.reqs), len(refRec.reqs))
			}
			for i := range refRec.reqs {
				if !bytes.Equal(gotRec.reqs[i], refRec.reqs[i]) {
					t.Fatalf("%s: request %d\n%x\nreference\n%x", label, i, gotRec.reqs[i], refRec.reqs[i])
				}
				if !bytes.Equal(gotRec.resps[i], refRec.resps[i]) {
					t.Fatalf("%s: response %d\n%x\nreference\n%x", label, i, gotRec.resps[i], refRec.resps[i])
				}
			}
			for i := range oids {
				if gotVals[i] != refVals[i] || fmt.Sprint(gotErrs[i]) != fmt.Sprint(refErrs[i]) {
					t.Fatalf("%s: %v = %d, %v; reference %d, %v", label, oids[i], gotVals[i], gotErrs[i], refVals[i], refErrs[i])
				}
			}
		}

		for i := range 3 {
			compare(fmt.Sprint("poll", i))
		}
		for _, mib := range mibs {
			mib.Register(oids[1], func() Value { return Counter64Value(12345) })
			mib.Register(late, func() Value { return Counter32Value(77) })
		}
		compare("after-register")
		compare("after-register-again")
		gotAgent.MaxVarBinds, refAgent.MaxVarBinds = 10, 10
		compare("max-varbinds-10")
		gotAgent.MaxVarBinds, refAgent.MaxVarBinds = 256, 256
		compare("max-varbinds-restored")
		for _, tc := range pollTampers {
			gotRec.tamper, refRec.tamper = tc.tamper, tc.tamper
			compare(tc.name)
		}
		gotRec.tamper, refRec.tamper = nil, nil

		canonical := &Message{Version: Version2c, Community: "c", PDU: PDU{Type: GetRequest, RequestID: 77}}
		for _, o := range oids[:5] {
			canonical.PDU.VarBinds = append(canonical.PDU.VarBinds, VarBind{OID: o, Value: Value{Kind: KindNull}})
		}
		for i, req := range [][]byte{encodeNonMinimal(canonical), encodeNonMinimal(canonical), canonical.Encode()} {
			got, want := gotAgent.HandleRequest(req), refHandleRequest(refAgent, req)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: non-minimal GET %d answered\n%x\nreference\n%x", name, i, got, want)
			}
		}
	}
}

// TestResolvedTableBound: an agent keeps resolved lists up to
// resolvedBytesPerObject bytes of list per MIB object and then keeps
// what it holds. GETs of ever new lists past the bound are answered as
// the reference answers them, first and second time alike, and are not
// kept; the list kept first (a poller's, asked before them) still is. A
// registration empties the table. ~0 s.
func TestResolvedTableBound(t *testing.T) {
	mib, oids := counterMIB(4)
	refMIB, _ := counterMIB(4)
	agent, ref := NewAgent("c", mib), NewAgent("c", refMIB)
	get := func(id int32, names ...OID) (req []byte, list string) {
		m := &Message{Version: Version2c, Community: "c", PDU: PDU{Type: GetRequest, RequestID: id}}
		for _, o := range names {
			m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: o, Value: Value{Kind: KindNull}})
		}
		req = m.Encode()
		var h header
		vbl, err := h.read(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, string(vbl.buf)
	}
	answer := func(req []byte) {
		t.Helper()
		want := refHandleRequest(ref, req)
		for pass := range 2 {
			if got := agent.HandleRequest(req); !bytes.Equal(got, want) {
				t.Fatalf("pass %d: response\n%x\nreference\n%x", pass, got, want)
			}
		}
	}
	first, firstList := get(1, oids...)
	answer(first)
	const others = 64
	for i := range others {
		req, _ := get(int32(2+i), oids[i%len(oids)], OIDIfHCOutOctets.Append(uint32(1000+i)))
		answer(req)
	}
	answer(first)
	limit := resolvedBytesPerObject * mib.Len()
	if _, kept := mib.resolved[firstList]; !kept || mib.resolvedBytes > limit || len(mib.resolved) > others {
		t.Fatalf("first list kept %v; %d lists of %d bytes kept, limit %d bytes", kept, len(mib.resolved), mib.resolvedBytes, limit)
	}
	for _, m := range []*MIB{mib, refMIB} {
		m.Register(oids[0], func() Value { return Counter32Value(5) })
	}
	if len(mib.resolved) != 0 || mib.resolvedBytes != 0 {
		t.Fatalf("after a registration %d lists of %d bytes kept", len(mib.resolved), mib.resolvedBytes)
	}
	answer(first)
}

// FuzzPreparedPoll feeds arbitrary bytes to both halves of the prepared
// poll: as the response to a three-counter CounterPoll, whose values and
// error texts must equal refGetCounters' on the same response (and whose
// request must be the reference's, byte for byte), and as a request to an
// Agent, whose response must be refHandleRequest's, byte for byte, on the
// first call (a miss) and on a second (a hit) — except that a GETBULK
// response is the reference's cut to MaxVarBinds varbinds, non-repeaters
// included.
func FuzzPreparedPoll(f *testing.F) {
	mib, oids := counterMIB(6)
	mib.Register(oids[2], func() Value { return StringValue("not a counter") })
	agent := NewAgent("c", mib)
	asked := oids[:3]
	raw := refAgentRecorder(agent)
	refGetCounters(NewClient(raw, "c"), asked, make([]uint64, 3), make([]error, 3))
	f.Add(raw.resps[0])
	f.Add(raw.reqs[0])
	m, _ := DecodeMessage(raw.resps[0])
	f.Add(encodeNonMinimal(m))
	m, _ = DecodeMessage(raw.reqs[0])
	f.Add(encodeNonMinimal(m))
	for _, typ := range []PDUType{GetNextRequest, GetBulkRequest, SetRequest} {
		m.PDU.Type, m.PDU.ErrorStatus, m.PDU.ErrorIndex = typ, 5, 3
		f.Add(m.Encode())
	}
	for _, tc := range pollTampers {
		f.Add(tc.tamper(raw.resps[0]))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		serve := func(dst, _ []byte) []byte {
			if dst == nil {
				dst = []byte{} // an empty answer is an answer, not a dropped request
			}
			return append(dst, data...)
		}
		gotRec, refRec := &recorder{handle: serve}, &recorder{handle: serve}
		gotVals, gotErrs := make([]uint64, len(asked)), make([]error, len(asked))
		refVals, refErrs := make([]uint64, len(asked)), make([]error, len(asked))
		NewClient(gotRec, "c").PrepareCounters(asked).Read(gotVals, gotErrs)
		refGetCounters(NewClient(refRec, "c"), asked, refVals, refErrs)
		if !bytes.Equal(gotRec.reqs[0], refRec.reqs[0]) {
			t.Fatalf("request\n%x\nreference\n%x", gotRec.reqs[0], refRec.reqs[0])
		}
		for i := range asked {
			if gotVals[i] != refVals[i] || fmt.Sprint(gotErrs[i]) != fmt.Sprint(refErrs[i]) {
				t.Fatalf("counter %d = %d, %v; reference %d, %v", i, gotVals[i], gotErrs[i], refVals[i], refErrs[i])
			}
		}

		gotMIB, _ := counterMIB(6)
		refMIB, _ := counterMIB(6)
		got, ref := NewAgent("c", gotMIB), NewAgent("c", refMIB)
		got.MaxVarBinds, ref.MaxVarBinds = 8, 8
		want := refHandleRequest(ref, data)
		if req, err := DecodeMessage(data); err == nil && req.PDU.Type == GetBulkRequest && want != nil {
			resp, err := DecodeMessage(want)
			if err != nil {
				t.Fatalf("reference response does not decode: %v", err)
			}
			if len(resp.PDU.VarBinds) > ref.MaxVarBinds {
				resp.PDU.VarBinds = resp.PDU.VarBinds[:ref.MaxVarBinds]
				want = resp.Encode()
			}
		}
		for pass := range 2 {
			if resp := got.HandleRequest(data); !bytes.Equal(resp, want) || (resp == nil) != (want == nil) {
				t.Fatalf("pass %d: response\n%x\nreference\n%x", pass, resp, want)
			}
		}
	})
}
