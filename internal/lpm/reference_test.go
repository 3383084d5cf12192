package lpm

// The one-bit binary trie this package used before path compression, kept
// verbatim (identifiers prefixed with ref) as the oracle the randomized
// property test and FuzzTable hold the compressed trie to: one node per
// address bit on every installed prefix's path, never compacted.

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// refTable is a longest-prefix-match table mapping prefixes to values.
// The zero value is not usable; call newRef.
type refTable[V any] struct {
	v4, v6 *refNode[V]
	size   int
	// owner marks the nodes this table may write in place: those it
	// created since it was last on either side of a Clone. Every other
	// node may be shared with another table and is copied before a write.
	owner *byte
}

type refNode[V any] struct {
	child [2]*refNode[V]
	val   *V // nil when no prefix ends here; the pointee is never written
	owner *byte
}

// newRef returns an empty table.
func newRef[V any]() *refTable[V] {
	return &refTable[V]{owner: new(byte)}
}

// Clone returns an independent table with the same contents in O(1).
// Neither table's later mutations are visible to the other. Clone itself
// writes to t (both sides give up ownership of the shared nodes), so it
// must not run concurrently with other calls on t; afterwards the two
// tables may be used from different goroutines.
func (t *refTable[V]) Clone() *refTable[V] {
	t.owner = new(byte)
	return &refTable[V]{v4: t.v4, v6: t.v6, size: t.size, owner: new(byte)}
}

// Len returns the number of installed prefixes.
func (t *refTable[V]) Len() int { return t.size }

func (t *refTable[V]) root(is4 bool) **refNode[V] {
	if is4 {
		return &t.v4
	}
	return &t.v6
}

// refKey is an address left-aligned in 128 bits: bit 0, the most
// significant bit of the address, is the top bit of hi.
type refKey struct{ hi, lo uint64 }

// refKeyOf returns the key of an address and its family's address length.
func refKeyOf(a netip.Addr) (refKey, int) {
	if a.Is4() {
		b := a.As4()
		return refKey{hi: uint64(binary.BigEndian.Uint32(b[:])) << 32}, 32
	}
	b := a.As16()
	return refKey{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}, 128
}

func (k refKey) bit(i int) uint64 {
	if i < 64 {
		return k.hi >> (63 - uint(i)) & 1
	}
	return k.lo >> (127 - uint(i)) & 1
}

// withBit returns k with bit i set; i == 128, one past a host route, sets
// nothing (an oversized shift yields zero).
func (k refKey) withBit(i int) refKey {
	if i < 64 {
		k.hi |= 1 << (63 - uint(i))
	} else {
		k.lo |= 1 << (127 - uint(i))
	}
	return k
}

func (k refKey) addr(is4 bool) netip.Addr {
	if is4 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.hi>>32))
		return netip.AddrFrom4(b)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	return netip.AddrFrom16(b)
}

// find returns the node of an exact (masked) prefix, or nil.
func (t *refTable[V]) find(p netip.Prefix) *refNode[V] {
	k, _ := refKeyOf(p.Addr())
	n := *t.root(p.Addr().Is4())
	for i := 0; n != nil && i < p.Bits(); i++ {
		n = n.child[k.bit(i)]
	}
	return n
}

// writable returns the node of an exact (masked) prefix for writing: every
// node on the path that is missing is created, and every one this table
// does not own is replaced by an owned copy.
func (t *refTable[V]) writable(p netip.Prefix) *refNode[V] {
	k, _ := refKeyOf(p.Addr())
	at := t.root(p.Addr().Is4())
	for i := 0; ; i++ {
		n := *at
		switch {
		case n == nil:
			n = &refNode[V]{owner: t.owner}
			*at = n
		case n.owner != t.owner:
			c := *n
			c.owner = t.owner
			n = &c
			*at = n
		}
		if i == p.Bits() {
			return n
		}
		at = &n.child[k.bit(i)]
	}
}

// Insert adds or replaces the value for an exact prefix.
func (t *refTable[V]) Insert(p netip.Prefix, v V) {
	if !p.IsValid() {
		panic(fmt.Sprintf("lpm: invalid prefix %v", p))
	}
	n := t.writable(p.Masked())
	if n.val == nil {
		t.size++
	}
	n.val = &v
}

// Remove deletes an exact prefix, reporting whether it was present.
// Trie nodes are not compacted: tables in this system are small and the
// same prefixes come and go.
func (t *refTable[V]) Remove(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
	if n := t.find(p); n == nil || n.val == nil {
		return false
	}
	t.writable(p).val = nil
	t.size--
	return true
}

// Get returns the value stored for the exact prefix.
func (t *refTable[V]) Get(p netip.Prefix) (V, bool) {
	if p.IsValid() {
		if n := t.find(p.Masked()); n != nil && n.val != nil {
			return *n.val, true
		}
	}
	var zero V
	return zero, false
}

// Lookup performs longest-prefix-match for an address, returning the value
// of the most specific covering prefix.
func (t *refTable[V]) Lookup(a netip.Addr) (V, netip.Prefix, bool) {
	var best *V
	bestBits := 0
	if a.IsValid() {
		k, max := refKeyOf(a)
		n := *t.root(a.Is4())
		for i := 0; n != nil; i++ {
			if n.val != nil {
				best, bestBits = n.val, i
			}
			if i == max {
				break
			}
			n = n.child[k.bit(i)]
		}
	}
	if best == nil {
		var zero V
		return zero, netip.Prefix{}, false
	}
	return *best, netip.PrefixFrom(a, bestBits).Masked(), true
}

// Walk visits every installed prefix in sorted order: IPv4 before IPv6,
// then by address, shorter prefixes of the same address first — which is
// the trie's pre-order, so nothing is collected or sorted. The walk stops
// early if fn returns false. fn must not mutate t.
func (t *refTable[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	_ = refWalk(t.v4, true, refKey{}, 0, fn) && refWalk(t.v6, false, refKey{}, 0, fn)
}

// refWalk visits the subtree of n, whose prefix is the first bits bits of k.
func refWalk[V any](n *refNode[V], is4 bool, k refKey, bits int, fn func(netip.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.val != nil && !fn(netip.PrefixFrom(k.addr(is4), bits), *n.val) {
		return false
	}
	return refWalk(n.child[0], is4, k, bits+1, fn) && refWalk(n.child[1], is4, k.withBit(bits), bits+1, fn)
}

// Prefixes returns all installed prefixes in sorted order.
func (t *refTable[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.size)
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
