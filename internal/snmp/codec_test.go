package snmp

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Values the two integer encoders change length at, and around.
var (
	edgeInts = []int64{0, 1, -1, 0x7F, 0x80, -0x7F, -0x80, -0x81, 0xFF, 0x100, 0x7FFF, 0x8000, -0x8000, -0x8001,
		1 << 31, -(1 << 31), 1<<31 - 1, math.MaxInt64, math.MinInt64}
	edgeUints = []uint64{0, 1, 0x7F, 0x80, 0xFF, 0x100, 0x7FFF, 0x8000, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32,
		1<<63 - 1, 1 << 63, math.MaxUint64}
	edgeArcs = []uint32{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, math.MaxUint32}
	pduTypes = []PDUType{GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest}
)

func pick[T any](rng *rand.Rand, edges []T, random func() T) T {
	if rng.Intn(2) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	return random()
}

func randomOID(rng *rand.Rand) OID {
	if rng.Intn(20) == 0 {
		return OID(make([]uint32, rng.Intn(2))) // degenerate: encodes as 0.0
	}
	o := OID{uint32(rng.Intn(3)), uint32(rng.Intn(40))}
	for n := rng.Intn(14); n > 0; n-- {
		o = append(o, pick(rng, edgeArcs, rng.Uint32))
	}
	return o
}

func randomValue(rng *rand.Rand) Value {
	v := Value{Kind: Kind(rng.Intn(int(KindEndOfMibView) + 1))}
	switch v.Kind {
	case KindInteger:
		v.Int = pick(rng, edgeInts, func() int64 { return int64(rng.Uint64()) })
	case KindOctetString:
		if n := rng.Intn(4); n > 0 {
			v.Bytes = make([]byte, pick(rng, []int{1, 127, 128, 255, 256, 300}, func() int { return rng.Intn(40) }))
			rng.Read(v.Bytes)
		}
	case KindOID:
		v.OID = randomOID(rng)
	case KindCounter32, KindGauge32, KindTimeTicks, KindCounter64:
		v.Uint = pick(rng, edgeUints, rng.Uint64) // the 32-bit kinds mask on encode
	}
	return v
}

func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		Version:   pick(rng, edgeInts, func() int64 { return Version2c }),
		Community: string(make([]byte, pick(rng, []int{0, 6, 127, 128, 256}, func() int { return rng.Intn(12) }))),
		PDU: PDU{
			Type:        pduTypes[rng.Intn(len(pduTypes))],
			RequestID:   int32(pick(rng, edgeInts, func() int64 { return int64(rng.Int31()) })),
			ErrorStatus: int32(pick(rng, edgeInts, func() int64 { return int64(rng.Intn(20)) })),
			ErrorIndex:  int32(pick(rng, edgeInts, func() int64 { return int64(rng.Intn(50)) })),
		},
	}
	for n := pick(rng, []int{0, 1, 48, 70}, func() int { return rng.Intn(6) }); n > 0; n-- {
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: randomOID(rng), Value: randomValue(rng)})
	}
	return m
}

// sameDecode holds one input to the reference decoder's verdict, error
// text and message, through a fresh decoder and through the reused one.
func sameDecode(t *testing.T, reused *decoder, in []byte) {
	t.Helper()
	want, wantErr := refDecodeMessage(in)
	fresh, freshErr := DecodeMessage(in)
	again, againErr := reused.decode(in)
	for _, got := range []struct {
		how string
		m   *Message
		err error
	}{{"fresh", fresh, freshErr}, {"reused", again, againErr}} {
		if (got.err == nil) != (wantErr == nil) || (wantErr != nil && got.err.Error() != wantErr.Error()) {
			t.Fatalf("%s decode of %x: error %v, reference %v", got.how, in, got.err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got.m, want) {
			t.Fatalf("%s decode of %x:\n got %+v\nwant %+v", got.how, in, got.m, want)
		}
	}
}

// TestCodecMatchesReference holds the size-first encoder and the arena
// decoder to the codec they replaced (reference_test.go): the same wire
// bytes for random messages over every PDU type and value kind with the
// integers and OID arcs at every length boundary, and the same verdict,
// error text and decoded message for everything the mutation test throws
// at the decoder — also through one decoder reused for all of it.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var reused decoder
	var appended []byte
	kinds, types := map[Kind]int{}, map[PDUType]int{}
	for i := 0; i < 2000; i++ {
		m := randomMessage(rng)
		types[m.PDU.Type]++
		for _, vb := range m.PDU.VarBinds {
			kinds[vb.Value.Kind]++
		}
		want := refEncode(m)
		if got := m.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("message %d %+v:\n got %x\nwant %x", i, m, got, want)
		}
		appended = append(appended[:0], 0xEE) // appendTo must leave what is there alone
		appended = m.appendTo(appended)
		if appended[0] != 0xEE || !bytes.Equal(appended[1:], want) {
			t.Fatalf("message %d: appendTo after a byte wrote %x, want ee %x", i, appended, want)
		}
		sameDecode(t, &reused, want)
	}
	if len(types) != len(pduTypes) || len(kinds) != int(KindEndOfMibView)+1 {
		t.Fatalf("generator covered %d PDU types and %d kinds: %v %v", len(types), len(kinds), types, kinds)
	}
	for _, v := range edgeInts {
		m := &Message{Version: v, PDU: PDU{Type: GetResponse, VarBinds: []VarBind{{OID: OID{1, 3}, Value: IntegerValue(v)}}}}
		if got, want := m.Encode(), refEncode(m); !bytes.Equal(got, want) {
			t.Fatalf("integer %d: got %x, want %x", v, got, want)
		}
	}
	for _, v := range edgeUints {
		for _, k := range []Kind{KindCounter32, KindGauge32, KindTimeTicks, KindCounter64} {
			m := &Message{PDU: PDU{Type: GetResponse, VarBinds: []VarBind{{OID: OID{1, 3}, Value: Value{Kind: k, Uint: v}}}}}
			if got, want := m.Encode(), refEncode(m); !bytes.Equal(got, want) {
				t.Fatalf("%v %d: got %x, want %x", k, v, got, want)
			}
		}
	}
	for _, arc := range edgeArcs {
		m := &Message{PDU: PDU{Type: GetRequest, VarBinds: []VarBind{{OID: OID{1, 3, arc, 6, arc}}}}}
		if got, want := m.Encode(), refEncode(m); !bytes.Equal(got, want) {
			t.Fatalf("arc %d: got %x, want %x", arc, got, want)
		}
	}

	accepted := 0
	hostileInputs(func(in []byte) {
		sameDecode(t, &reused, in)
		if _, err := refDecodeMessage(in); err == nil {
			accepted++
		}
	})
	if accepted < 100 {
		t.Fatalf("only %d hostile inputs decode: the mutants no longer reach the value decoders", accepted)
	}
}

// TestDecoderReuse: a message decoded through a decoder that has held a
// longer one (more varbinds, longer OIDs, octet strings, another
// community) equals a fresh decode, and the longer message's slices are
// what the arena's lifetime rule says they are — overwritten.
func TestDecoderReuse(t *testing.T) {
	long := &Message{Version: Version2c, Community: "a-longer-community", PDU: PDU{Type: GetResponse, RequestID: 9}}
	for i := uint32(0); i < 60; i++ {
		long.PDU.VarBinds = append(long.PDU.VarBinds,
			VarBind{OID: OIDIfHCOutOctets.Append(i, 1<<30, i), Value: StringValue("interface description")})
	}
	short := &Message{Version: Version2c, Community: "c", PDU: PDU{Type: GetResponse, RequestID: 10, VarBinds: []VarBind{
		{OID: MustOID("1.3.6.1"), Value: Counter64Value(5)},
		{OID: MustOID("1.3.7"), Value: StringValue("x")},
		{OID: MustOID("1.3.8"), Value: Value{Kind: KindOID, OID: MustOID("1.3.9.9")}},
	}}}
	empty := &Message{Version: Version2c, Community: "c", PDU: PDU{Type: GetResponse, ErrorStatus: ErrTooBig}}

	var d decoder
	var kept OID
	for range 2 { // the first pass grows the arenas, the second lives in them
		first, err := d.decode(long.Encode())
		if err != nil {
			t.Fatal(err)
		}
		kept = first.PDU.VarBinds[0].OID
	}
	for _, m := range []*Message{short, empty, long, short} {
		got, err := d.decode(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDecodeMessage(refEncode(m))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reused decoder:\n got %+v\nwant %+v", got, want)
		}
	}
	if kept.Cmp(long.PDU.VarBinds[0].OID) == 0 {
		t.Fatalf("an OID kept across decodes survived: the arena is not being reused")
	}
	// An OID of a decoded message is capped: appending to it must not
	// write into its neighbour.
	got, _ := d.decode(short.Encode())
	_ = append(got.PDU.VarBinds[0].OID, 99)
	if got.PDU.VarBinds[1].OID.Cmp(MustOID("1.3.7")) != 0 {
		t.Fatalf("append to one decoded OID overwrote the next: %v", got.PDU.VarBinds[1].OID)
	}
}
