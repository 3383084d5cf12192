package snmp

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage drives the hand-rolled BER decoder with arbitrary
// bytes: it must never panic, must agree with the reference decoder
// (reference_test.go) on verdict, error text and message — fresh and
// through a decoder reused across inputs — and anything it accepts must
// survive a canonical re-encode/decode round trip bit-for-bit, the
// re-encoding being the reference encoder's too.
func FuzzDecodeMessage(f *testing.F) {
	// Seed corpus: one well-formed message per PDU type and value kind.
	req := &Message{
		Version:   Version2c,
		Community: "public",
		PDU: PDU{
			Type:      GetRequest,
			RequestID: 42,
			VarBinds: []VarBind{
				{OID: MustOID("1.3.6.1.2.1.2.2.1.10.7"), Value: Value{Kind: KindNull}},
			},
		},
	}
	f.Add(req.Encode())
	resp := &Message{
		Version:   Version2c,
		Community: "public",
		PDU: PDU{
			Type:      GetResponse,
			RequestID: 42,
			VarBinds: []VarBind{
				{OID: MustOID("1.3.6.1.2.1.2.2.1.10.7"), Value: Counter64Value(1 << 40)},
				{OID: MustOID("1.3.6.1.2.1.2.2.1.5.7"), Value: GaugeValue(10e6)},
				{OID: MustOID("1.3.6.1.2.1.1.5.0"), Value: StringValue("R3")},
				{OID: MustOID("1.3.6.1.2.1.1.7.0"), Value: IntegerValue(-72)},
			},
		},
	}
	f.Add(resp.Encode())
	bulk := &Message{
		Version:   Version2c,
		Community: "c",
		PDU: PDU{
			Type:        GetBulkRequest,
			RequestID:   7,
			ErrorStatus: 0,  // non-repeaters
			ErrorIndex:  10, // max-repetitions
			VarBinds:    []VarBind{{OID: MustOID("1.3.6.1"), Value: Value{Kind: KindNull}}},
		},
	}
	f.Add(bulk.Encode())
	// A few malformed shapes: truncated TLV, absurd length, empty.
	f.Add([]byte{})
	f.Add([]byte{0x30})
	f.Add([]byte{0x30, 0x84, 0xff, 0xff, 0xff, 0xff})
	f.Add(resp.Encode()[:10])

	var reused decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, &reused, data)
		m, err := DecodeMessage(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc := m.Encode()
		if want := refEncode(m); !bytes.Equal(enc, want) {
			t.Fatalf("re-encode differs from the reference encoder:\n got %x\nwant %x", enc, want)
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v\nencoded: %x", err, enc)
		}
		enc2 := m2.Encode()
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encode not stable:\nfirst:  %x\nsecond: %x", enc, enc2)
		}
	})
}

// FuzzParseOID checks the dotted-decimal OID parser against its printer.
func FuzzParseOID(f *testing.F) {
	f.Add("1.3.6.1.2.1.31.1.1.1.6")
	f.Add("0")
	f.Add("..")
	f.Add("1.3.4294967295.2")
	f.Fuzz(func(t *testing.T, s string) {
		oid, err := ParseOID(s)
		if err != nil {
			return
		}
		back, err := ParseOID(oid.String())
		if err != nil {
			t.Fatalf("printed OID %q does not reparse: %v", oid.String(), err)
		}
		if oid.Cmp(back) != 0 {
			t.Fatalf("round trip changed OID: %v -> %v", oid, back)
		}
	})
}
