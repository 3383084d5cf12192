// Package lpm implements a longest-prefix-match path-compressed trie over
// IP prefixes, the lookup structure backing every router FIB in the
// emulated network. It supports IPv4 and IPv6 prefixes (in separate tries
// keyed by address family), insertion, exact removal, longest-match
// lookup (optionally reporting whether the match is a leaf, with no
// installed prefix inside it), and ordered walking.
//
// A node exists only where an installed prefix ends or where two
// installed prefixes part: each node stores its whole prefix, so a walk
// from the root skips every bit on which nothing branches, and a lookup
// visits about log2 of the installed prefixes rather than one node per
// address bit. Remove keeps that shape by splicing out a node left with no
// value and one child.
//
// The trie is copy-on-write: Clone is O(1) and shares every node with the
// original; a later Insert or Remove on either table copies only the nodes
// on its own path, so a clone is a snapshot that costs what is changed
// after it, not what the table holds.
package lpm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// Table is a longest-prefix-match table mapping prefixes to values.
// The zero value is not usable; call New.
type Table[V any] struct {
	v4, v6 *node[V]
	size   int
	// owner marks the nodes this table may write in place: those it
	// created since it was last on either side of a Clone. Every other
	// node may be shared with another table and is copied before a write.
	owner *byte
}

// node is the prefix of its first bits bits of key (the rest zero). A
// node without a value has two children; a child's prefix extends its
// parent's by at least one bit, and that next bit is the child's index.
type node[V any] struct {
	key   key
	bits  int
	child [2]*node[V]
	val   *V // nil when no prefix ends here; the pointee is never written
	owner *byte
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{owner: new(byte)}
}

// Clone returns an independent table with the same contents in O(1).
// Neither table's later mutations are visible to the other. Clone itself
// writes to t (both sides give up ownership of the shared nodes), so it
// must not run concurrently with other calls on t; afterwards the two
// tables may be used from different goroutines.
func (t *Table[V]) Clone() *Table[V] {
	t.owner = new(byte)
	return &Table[V]{v4: t.v4, v6: t.v6, size: t.size, owner: new(byte)}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return t.size }

func (t *Table[V]) root(is4 bool) **node[V] {
	if is4 {
		return &t.v4
	}
	return &t.v6
}

// own returns the node *at for writing, first replacing it with an owned
// copy if it may be shared. The node holding at must be owned already.
func (t *Table[V]) own(at **node[V]) *node[V] {
	n := *at
	if n.owner != t.owner {
		c := *n
		c.owner = t.owner
		n = &c
		*at = n
	}
	return n
}

// key is an address left-aligned in 128 bits: bit 0, the most significant
// bit of the address, is the top bit of hi.
type key struct{ hi, lo uint64 }

// keyOf returns the key of an address and its family's address length.
func keyOf(a netip.Addr) (key, int) {
	if a.Is4() {
		b := a.As4()
		return key{hi: uint64(binary.BigEndian.Uint32(b[:])) << 32}, 32
	}
	b := a.As16()
	return key{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}, 128
}

func (k key) bit(i int) uint64 {
	if i < 64 {
		return k.hi >> (63 - uint(i)) & 1
	}
	return k.lo >> (127 - uint(i)) & 1
}

// hasPrefix reports whether the first n bits of k equal those of p.
// Oversized shifts yield zero, so n == 0 and n == 64 need no case.
func (k key) hasPrefix(p key, n int) bool {
	if n <= 64 {
		return (k.hi^p.hi)>>(64-uint(n)) == 0
	}
	return k.hi == p.hi && (k.lo^p.lo)>>(128-uint(n)) == 0
}

// common returns the number of leading bits k and p share, at most limit.
func (k key) common(p key, limit int) int {
	n := bits.LeadingZeros64(k.hi ^ p.hi)
	if n == 64 {
		n += bits.LeadingZeros64(k.lo ^ p.lo)
	}
	return min(n, limit)
}

// masked returns k with every bit from n on cleared.
func (k key) masked(n int) key {
	if n <= 64 {
		return key{hi: k.hi &^ (^uint64(0) >> uint(n))}
	}
	return key{k.hi, k.lo &^ (^uint64(0) >> uint(n-64))}
}

func (k key) addr(is4 bool) netip.Addr {
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
func (t *Table[V]) find(p netip.Prefix) *node[V] {
	k, _ := keyOf(p.Addr())
	n := *t.root(p.Addr().Is4())
	for n != nil && n.bits < p.Bits() {
		if !k.hasPrefix(n.key, n.bits) {
			return nil
		}
		n = n.child[k.bit(n.bits)]
	}
	if n == nil || n.bits != p.Bits() || n.key != k {
		return nil
	}
	return n
}

// Insert adds or replaces the value for an exact prefix.
func (t *Table[V]) Insert(p netip.Prefix, v V) {
	if !p.IsValid() {
		panic(fmt.Sprintf("lpm: invalid prefix %v", p))
	}
	p = p.Masked()
	k, _ := keyOf(p.Addr())
	plen := p.Bits()
	at := t.root(p.Addr().Is4())
	for {
		n := *at
		if n == nil {
			*at = &node[V]{key: k, bits: plen, val: &v, owner: t.owner}
			t.size++
			return
		}
		c := k.common(n.key, min(plen, n.bits))
		if c == n.bits {
			n = t.own(at)
			if c == plen {
				if n.val == nil {
					t.size++
				}
				n.val = &v
				return
			}
			at = &n.child[k.bit(c)] // n covers p: descend
			continue
		}
		// p and n part at bit c, or p covers n (c == plen): either way a
		// new node goes in n's place, with n below it.
		leaf := &node[V]{key: k, bits: plen, val: &v, owner: t.owner}
		if c == plen {
			leaf.child[n.key.bit(c)] = n
			*at = leaf
		} else {
			fork := &node[V]{key: k.masked(c), bits: c, owner: t.owner}
			fork.child[k.bit(c)] = leaf
			fork.child[n.key.bit(c)] = n
			*at = fork
		}
		t.size++
		return
	}
}

// Remove deletes an exact prefix, reporting whether it was present. The
// node goes with its value unless it still forks, and a parent left
// with no value and one child is spliced out too, so the trie keeps
// only nodes that end a prefix or fork.
func (t *Table[V]) Remove(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
	if n := t.find(p); n == nil || n.val == nil {
		return false
	}
	k, _ := keyOf(p.Addr())
	var parent **node[V]
	at := t.root(p.Addr().Is4())
	for (*at).bits < p.Bits() {
		n := t.own(at)
		parent, at = at, &n.child[k.bit(n.bits)]
	}
	t.size--
	n := *at
	switch {
	case n.child[0] != nil && n.child[1] != nil:
		t.own(at).val = nil
	case n.child[0] != nil:
		*at = n.child[0]
	case n.child[1] != nil:
		*at = n.child[1]
	default:
		*at = nil
		if parent != nil && (*parent).val == nil {
			// A node without a value forks, so the sibling is there.
			par := *parent
			*parent = par.child[0]
			if *parent == nil {
				*parent = par.child[1]
			}
		}
	}
	return true
}

// Get returns the value stored for the exact prefix.
func (t *Table[V]) Get(p netip.Prefix) (V, bool) {
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
func (t *Table[V]) Lookup(a netip.Addr) (V, netip.Prefix, bool) {
	v, p, _, ok := t.LookupLeaf(a)
	return v, p, ok
}

// LookupLeaf is Lookup that also reports whether the match is a leaf: no
// installed prefix lies strictly inside the matched one, so every address
// the matched prefix covers has the same longest match. The matched node
// answers it: a leaf is a node without children.
func (t *Table[V]) LookupLeaf(a netip.Addr) (v V, p netip.Prefix, leaf, ok bool) {
	// A full-length prefix has no children, and the bit past it reads as
	// 0 (an oversized shift), so neither walk needs a length check to stop.
	var best *node[V]
	switch {
	case a.Is4():
		// IPv4 keys live in hi alone.
		b := a.As4()
		hi := uint64(binary.BigEndian.Uint32(b[:])) << 32
		for n := t.v4; n != nil && (hi^n.key.hi)>>(64-uint(n.bits)) == 0; n = n.child[hi>>(63-uint(n.bits))&1] {
			if n.val != nil {
				best = n
			}
		}
	case a.Is6():
		k, _ := keyOf(a)
		for n := t.v6; n != nil && k.hasPrefix(n.key, n.bits); n = n.child[k.bit(n.bits)] {
			if n.val != nil {
				best = n
			}
		}
	}
	if best == nil {
		return v, p, false, false
	}
	leaf = best.child[0] == nil && best.child[1] == nil
	return *best.val, netip.PrefixFrom(a, best.bits).Masked(), leaf, true
}

// Walk visits every installed prefix in sorted order: IPv4 before IPv6,
// then by address, shorter prefixes of the same address first — which is
// the trie's pre-order, so nothing is collected or sorted. The walk stops
// early if fn returns false. fn must not mutate t.
func (t *Table[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	_ = walk(t.v4, true, fn) && walk(t.v6, false, fn)
}

// walk visits the subtree of n.
func walk[V any](n *node[V], is4 bool, fn func(netip.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.val != nil && !fn(netip.PrefixFrom(n.key.addr(is4), n.bits), *n.val) {
		return false
	}
	return walk(n.child[0], is4, fn) && walk(n.child[1], is4, fn)
}

// Prefixes returns all installed prefixes in sorted order.
func (t *Table[V]) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, t.size)
	t.Walk(func(p netip.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
