package fib

import (
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

// referenceHash is FlowKey.Hash as it was first written, over hash/fnv and
// the addresses' MarshalBinary. ECMP picks are output-visible (every
// report and benchmark digest depends on them), so the inline
// implementation must agree with it bit for bit, forever.
func referenceHash(k FlowKey, salt uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(salt >> (8 * i))
	}
	h.Write(buf[:])
	src, _ := k.Src.MarshalBinary()
	dst, _ := k.Dst.MarshalBinary()
	h.Write(src)
	h.Write(dst)
	buf[0] = byte(k.SrcPort >> 8)
	buf[1] = byte(k.SrcPort)
	buf[2] = byte(k.DstPort >> 8)
	buf[3] = byte(k.DstPort)
	buf[4] = k.Proto
	h.Write(buf[:5])
	return mix64(h.Sum64())
}

// randomAddr draws a zero, v4, v6, v4-in-v6 or zoned v6 address.
func randomAddr(rng *rand.Rand) netip.Addr {
	var b16 [16]byte
	rng.Read(b16[:])
	switch rng.Intn(5) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom4([4]byte(b16[:4]))
	case 2:
		return netip.AddrFrom16(b16)
	case 3:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(b16[:4])).As16()) // ::ffff:a.b.c.d stays 16 bytes
	default:
		zones := []string{"eth0", "lo", "a-rather-long-interface-name", "7"}
		return netip.AddrFrom16(b16).WithZone(zones[rng.Intn(len(zones))])
	}
}

func TestHashMatchesFNVReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		k := FlowKey{
			Src: randomAddr(rng), Dst: randomAddr(rng),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32()),
		}
		salt := rng.Uint64()
		if got, want := k.Hash(salt), referenceHash(k, salt); got != want {
			t.Fatalf("key %+v salt %#x: Hash = %#x, reference = %#x", k, salt, got, want)
		}
	}
}

// TestForwardingWalkAllocatesNothing pins the cost contract the data plane
// builds on: hashing a key, selecting a next hop and walking a delivered
// path with a visitor that does not escape are all allocation-free.
func TestForwardingWalkAllocatesNothing(t *testing.T) {
	p := planeFor(t)
	keys := []FlowKey{
		{Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.66.0.5"), SrcPort: 42, DstPort: 80, Proto: 6},
		{Src: mustAddr("fe80::1%eth0"), Dst: mustAddr("2001:db8::5"), SrcPort: 42, DstPort: 80, Proto: 17},
	}
	var sink uint64
	for _, k := range keys {
		if n := testing.AllocsPerRun(100, func() { sink += k.Hash(0x9e3779b97f4a7c15) }); n != 0 {
			t.Errorf("Hash(%v): %v allocs/op, want 0", k.Dst, n)
		}
	}
	k := keys[0]
	ecmp, single := p.Tables[0], p.Tables[1] // two next hops (hashed), one (not hashed)
	for _, tbl := range []*Table{ecmp, single} {
		if n := testing.AllocsPerRun(100, func() {
			nh, _, _ := tbl.Select(k.Dst, k)
			sink += uint64(nh.Node)
		}); n != 0 {
			t.Errorf("Select at router %d: %v allocs/op, want 0", tbl.Router, n)
		}
	}
	hops := 0
	var last topo.NodeID
	if n := testing.AllocsPerRun(100, func() {
		if err := p.WalkTrace(0, k, func(cur topo.NodeID, _ Route, _ NextHop) bool {
			hops++
			last = cur
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WalkTrace: %v allocs/op, want 0", n)
	}
	if hops == 0 || last != 3 {
		t.Fatalf("walk did not deliver: %d hops, last router %d", hops, last)
	}
	_ = sink
}

// TestWalkTraceHopLimit drives the walk down a loop-free chain longer than
// MaxHops: it must stop at the limit with an error, having consulted
// exactly MaxHops routers.
func TestWalkTraceHopLimit(t *testing.T) {
	p := NewPlane()
	pfx := mustPfx("10.66.0.0/16")
	for i := 0; i < MaxHops+8; i++ {
		tb := NewTable(topo.NodeID(i))
		if err := tb.Install(Route{Prefix: pfx, NextHops: []NextHop{{Node: topo.NodeID(i + 1), Weight: 1}}}); err != nil {
			t.Fatal(err)
		}
		p.Tables[topo.NodeID(i)] = tb
	}
	visited := 0
	err := p.WalkTrace(0, FlowKey{Dst: mustAddr("10.66.0.1")}, func(topo.NodeID, Route, NextHop) bool {
		visited++
		return true
	})
	if err == nil || visited != MaxHops {
		t.Fatalf("err = %v after %d routers, want the hop-limit error after %d", err, visited, MaxHops)
	}
}
