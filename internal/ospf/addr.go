package ospf

import (
	"net/netip"

	"fibbing.net/fibbing/internal/topo"
)

// Addressing scheme of the emulated network.
//
// Every router owns a loopback /32 in 10.0.0.0/16, derived from its node
// ID. Routers originate a Prefix LSA for their loopback, so management
// traffic (SNMP polling, controller sessions) is routable like in a real
// deployment. Destination prefixes come from the topology (for Figure 1,
// the blue prefix 10.66.0.0/16 at C).

// Loopback returns the loopback address of a node: 10.0.hi.lo with
// hi.lo = node ID + 1 (so node 0 gets 10.0.0.1).
func Loopback(n topo.NodeID) netip.Addr {
	v := uint16(n) + 1
	return netip.AddrFrom4([4]byte{10, 0, byte(v >> 8), byte(v)})
}

// LoopbackPrefix returns the /32 covering a node's loopback.
func LoopbackPrefix(n topo.NodeID) netip.Prefix {
	return netip.PrefixFrom(Loopback(n), 32)
}

// HostAddr synthesises the i-th host address inside a destination prefix
// (i starts at 0). It is used to give simulated clients distinct addresses
// within the prefix the flash crowd targets. Hosts wrap around inside the
// prefix's own host space, skipping its network and broadcast addresses (a
// /31 or /32 has neither). The space is capped at 16 bits — 65534 hosts,
// ample for the demo — so only the two low bytes ever change.
func HostAddr(p netip.Prefix, i int) netip.Addr {
	a := p.Addr().As4()
	hostBits := min(32-p.Bits(), 16)
	first, usable := 1, 1<<hostBits-2
	if usable < 1 {
		first, usable = 0, 1<<hostBits
	}
	mask := uint32(1)<<hostBits - 1
	v := uint32(a[2])<<8 | uint32(a[3])
	v = v&^mask | (v+uint32(i%usable+first))&mask
	a[2], a[3] = byte(v>>8), byte(v)
	return netip.AddrFrom4(a)
}
