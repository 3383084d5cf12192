package ospf

import (
	"net/netip"
	"testing"
)

// TestHostAddrStaysInsidePrefix: whatever the prefix length and however
// many viewers, a synthesised host lies inside the prefix (a host outside
// it has no route and its flow is silently blocked), is neither the
// network nor the broadcast address, and repeats only after the prefix's
// usable host space (capped at 65534) is exhausted.
func TestHostAddrStaysInsidePrefix(t *testing.T) {
	for bits := 8; bits <= 30; bits++ {
		for _, base := range []string{"10.66.0.0", "192.168.77.129"} {
			p := netip.PrefixFrom(netip.MustParseAddr(base), bits).Masked()
			hostMask := uint32(1)<<min(32-bits, 16) - 1
			usable := int(hostMask) - 1
			seen := make(map[netip.Addr]bool, usable)
			for i := 0; i <= 200_000; i++ {
				a := HostAddr(p, i)
				if !p.Contains(a) {
					t.Fatalf("HostAddr(%v, %d) = %v, outside the prefix", p, i, a)
				}
				b := a.As4()
				if host := (uint32(b[2])<<8 | uint32(b[3])) & hostMask; host == 0 || host == hostMask {
					t.Fatalf("HostAddr(%v, %d) = %v, a network or broadcast address", p, i, a)
				}
				if i < usable {
					if seen[a] {
						t.Fatalf("HostAddr(%v, %d) = %v repeats before the %d usable hosts are used up", p, i, a, usable)
					}
					seen[a] = true
				} else if !seen[a] {
					t.Fatalf("HostAddr(%v, %d) = %v, not one of the first %d hosts", p, i, a, usable)
				}
			}
		}
	}
	// The degenerate lengths have no network or broadcast address to skip.
	for _, c := range []struct{ prefix, want0, want1 string }{
		{"10.1.2.6/31", "10.1.2.6", "10.1.2.7"},
		{"10.1.2.7/32", "10.1.2.7", "10.1.2.7"},
	} {
		p := netip.MustParsePrefix(c.prefix)
		if a0, a1 := HostAddr(p, 0), HostAddr(p, 1); a0.String() != c.want0 || a1.String() != c.want1 {
			t.Fatalf("HostAddr(%v, 0/1) = %v, %v, want %s, %s", p, a0, a1, c.want0, c.want1)
		}
	}
}

// TestHostAddrGoldens pins the addresses every generated topology's crowd
// gets (all generators announce /16s): viewer addresses feed the ECMP
// hash, so they are as output-visible as the hash itself. For a /16 or
// shorter the result is the original formula's, bit for bit.
func TestHostAddrGoldens(t *testing.T) {
	for _, c := range []struct {
		prefix string
		i      int
		want   string
	}{
		{"10.66.0.0/16", 0, "10.66.0.1"},
		{"10.66.0.0/16", 7, "10.66.0.8"},
		{"10.66.0.0/16", 254, "10.66.0.255"},
		{"10.66.0.0/16", 255, "10.66.1.0"},
		{"10.66.0.0/16", 19999, "10.66.78.32"},
		{"10.66.0.0/16", 65533, "10.66.255.254"},
		{"10.66.0.0/16", 65534, "10.66.0.1"},
		{"10.210.0.0/16", 100000, "10.210.134.163"},
		{"10.0.0.0/8", 65533, "10.0.255.254"},
		{"10.0.0.0/8", 65534, "10.0.0.1"},
		{"10.1.2.0/24", 253, "10.1.2.254"},
		{"10.1.2.0/24", 254, "10.1.2.1"}, // the viewer that used to leave the prefix
		{"10.1.2.0/24", 255, "10.1.2.2"},
	} {
		if got := HostAddr(netip.MustParsePrefix(c.prefix), c.i); got.String() != c.want {
			t.Errorf("HostAddr(%s, %d) = %v, want %s", c.prefix, c.i, got, c.want)
		}
	}
	original := func(p netip.Prefix, i int) netip.Addr {
		a := p.Addr().As4()
		v := uint32(a[2])<<8 | uint32(a[3])
		v += uint32(i%65534) + 1
		a[2], a[3] = byte(v>>8), byte(v)
		return netip.AddrFrom4(a)
	}
	for bits := 8; bits <= 16; bits++ {
		for _, base := range []string{"10.0.0.0", "10.210.0.0", "10.66.3.9"} { // the last one unmasked
			p := netip.PrefixFrom(netip.MustParseAddr(base), bits)
			for i := 0; i <= 200_000; i += 1 + i/97 {
				if got, want := HostAddr(p, i), original(p, i); got != want {
					t.Fatalf("HostAddr(%v, %d) = %v, the original formula gave %v", p, i, got, want)
				}
			}
		}
	}
}
