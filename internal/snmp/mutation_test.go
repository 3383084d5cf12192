package snmp

import (
	"math/rand"
	"testing"
)

// hostileInputs calls fn with 20 000 mutants of a valid SNMP message (bit
// flips, a third of them truncated) and 5 000 buffers of pure noise.
func hostileInputs(fn func([]byte)) {
	rng := rand.New(rand.NewSource(123))
	valid := (&Message{
		Version:   Version2c,
		Community: "public",
		PDU: PDU{
			Type:      GetBulkRequest,
			RequestID: 77,
			VarBinds: []VarBind{
				{OID: MustOID("1.3.6.1.2.1.2.2.1.16.3"), Value: Counter64Value(1 << 50)},
				{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: StringValue("x")},
			},
		},
	}).Encode()
	for i := 0; i < 20000; i++ {
		buf := append([]byte(nil), valid...)
		for m := 0; m <= rng.Intn(5); m++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(3) == 0 {
			buf = buf[:rng.Intn(len(buf)+1)]
		}
		fn(buf)
	}
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(128))
		rng.Read(buf)
		fn(buf)
	}
}

// TestDecodeMessageNeverPanics mutates valid SNMP messages and feeds pure
// noise into the BER decoder: errors are fine, panics are not.
func TestDecodeMessageNeverPanics(t *testing.T) {
	hostileInputs(func(buf []byte) { _, _ = DecodeMessage(buf) })
}

// TestAgentNeverPanicsOnGarbage hammers the agent entry point directly
// (the code path exposed to the UDP socket).
func TestAgentNeverPanicsOnGarbage(t *testing.T) {
	agent := NewAgent("public", testMIB())
	rng := rand.New(rand.NewSource(321))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(96))
		rng.Read(buf)
		if resp := agent.HandleRequest(buf); resp != nil {
			// If it decoded to a valid community'd request by a fluke,
			// the response must itself decode.
			if _, err := DecodeMessage(resp); err != nil {
				t.Fatalf("agent emitted undecodable response: %v", err)
			}
		}
	}
}
