package lpm

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// checkShape verifies the compressed trie's invariants: every node ends a
// prefix or forks, a child extends its parent's prefix with its own index
// as the next bit, keys are masked to their length, the values count Len,
// and so the trie holds at most 2·Len-1 nodes.
func checkShape[V any](t *Table[V]) error {
	nodes, vals := 0, 0
	var visit func(n *node[V], is4 bool) error
	visit = func(n *node[V], is4 bool) error {
		nodes++
		if n.val != nil {
			vals++
		} else if n.child[0] == nil || n.child[1] == nil {
			return fmt.Errorf("node %v/%d has no value and %v children", n.key, n.bits, n.child)
		}
		if is4 && (n.bits > 32 || n.key.lo != 0) || n.bits > 128 {
			return fmt.Errorf("node %v/%d does not fit its family", n.key, n.bits)
		}
		if n.key.masked(n.bits) != n.key {
			return fmt.Errorf("node %v/%d has bits set past its length", n.key, n.bits)
		}
		for i, c := range n.child {
			if c == nil {
				continue
			}
			if c.bits <= n.bits || !c.key.hasPrefix(n.key, n.bits) || c.key.bit(n.bits) != uint64(i) {
				return fmt.Errorf("child %d %v/%d does not extend %v/%d", i, c.key, c.bits, n.key, n.bits)
			}
			if err := visit(c, is4); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range []struct {
		n   *node[V]
		is4 bool
	}{{t.v4, true}, {t.v6, false}} {
		if r.n != nil {
			if err := visit(r.n, r.is4); err != nil {
				return err
			}
		}
	}
	if vals != t.size {
		return fmt.Errorf("%d values in the trie, Len %d", vals, t.size)
	}
	if nodes > max(2*vals-1, 0) {
		return fmt.Errorf("%d nodes for %d prefixes: the trie is not compressed", nodes, vals)
	}
	return nil
}

// matchesReference compares everything a caller can observe of tb with
// the reference trie holding the same operations: Len, Walk order and
// values (and early stop), Prefixes, Get on every given prefix, and
// Lookup and LookupLeaf on every probe. A match is a leaf when no prefix
// the reference walks lies strictly inside it.
func matchesReference(tb *Table[int], ref *refTable[int], prefixes []netip.Prefix, probes []netip.Addr) error {
	if tb.Len() != ref.Len() {
		return fmt.Errorf("Len = %d, reference %d", tb.Len(), ref.Len())
	}
	type entry struct {
		p netip.Prefix
		v int
	}
	collect := func(walk func(func(netip.Prefix, int) bool), stop int) []entry {
		var out []entry
		walk(func(p netip.Prefix, v int) bool {
			out = append(out, entry{p, v})
			return len(out) != stop
		})
		return out
	}
	want := collect(ref.Walk, -1)
	if got := collect(tb.Walk, -1); !slices.Equal(got, want) {
		return fmt.Errorf("Walk = %v, reference %v", got, want)
	}
	if stop := len(want) / 2; stop > 0 {
		if got := collect(tb.Walk, stop); !slices.Equal(got, want[:stop]) {
			return fmt.Errorf("Walk stopped after %d = %v, reference %v", stop, got, want[:stop])
		}
	}
	if got, want := tb.Prefixes(), ref.Prefixes(); !slices.Equal(got, want) {
		return fmt.Errorf("Prefixes = %v, reference %v", got, want)
	}
	for _, p := range prefixes {
		v, ok := tb.Get(p)
		rv, rok := ref.Get(p)
		if v != rv || ok != rok {
			return fmt.Errorf("Get(%v) = %d, %v; reference %d, %v", p, v, ok, rv, rok)
		}
	}
	for _, a := range probes {
		v, p, ok := tb.Lookup(a)
		rv, rp, rok := ref.Lookup(a)
		if v != rv || p != rp || ok != rok {
			return fmt.Errorf("Lookup(%v) = %d, %v, %v; reference %d, %v, %v", a, v, p, ok, rv, rp, rok)
		}
		v, p, leaf, ok := tb.LookupLeaf(a)
		rleaf := rok && !slices.ContainsFunc(want, func(e entry) bool { return e.p.Bits() > rp.Bits() && rp.Overlaps(e.p) })
		if v != rv || p != rp || leaf != rleaf || ok != rok {
			return fmt.Errorf("LookupLeaf(%v) = %d, %v, leaf=%v, %v; reference %d, %v, leaf=%v, %v", a, v, p, leaf, ok, rv, rp, rleaf, rok)
		}
	}
	return checkShape(tb)
}

// opReader draws an operation sequence from bytes; past the end it reads
// zeros, so every input is a valid program.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

// addr draws from a small universe of both families, so prefixes nest,
// fork on low and high bits, collide and come back.
func (r *opReader) addr() netip.Addr {
	b, c := r.byte(), r.byte()
	if b&1 == 0 {
		return netip.AddrFrom4([4]byte{10, b & 0x80, c >> 4, c & 0x3})
	}
	var a [16]byte
	a[0], a[1], a[2] = 0x20, 0x01, b&0x80
	a[7], a[8], a[15] = c>>6, c>>4&0x3, c&0x3
	return netip.AddrFrom16(a)
}

func (r *opReader) prefix() netip.Prefix {
	a := r.addr()
	lens := []int{0, 1, 8, 9, 16, 19, 20, 24, 30, 31, 32}
	if a.Is6() {
		lens = []int{0, 16, 17, 56, 64, 66, 120, 126, 127, 128}
	}
	return netip.PrefixFrom(a, lens[int(r.byte())%len(lens)]).Masked()
}

// runOps plays an operation sequence on a family of tables grown by Clone
// and filled by Insert, also through Reserve, each paired with a
// reference trie that sees the same operations, and
// after every operation requires every member — not only the one it
// touched — to match its reference: a write through one member that
// reached a node another still shares would show in the other.
func runOps(data []byte) error {
	r := &opReader{data: data}
	tables := []*Table[int]{New[int]()}
	refs := []*refTable[int]{newRef[int]()}
	var prefixes []netip.Prefix // every prefix an operation named, once
	var probes []netip.Addr
	named := map[netip.Prefix]bool{}
	name := func(p netip.Prefix) {
		if !named[p] {
			named[p] = true
			prefixes = append(prefixes, p)
		}
	}
	for step := 0; r.pos < len(r.data); step++ {
		op := r.byte()
		i := int(op>>4) % len(tables)
		switch op & 0xf {
		case 0, 1, 2, 3, 4, 5:
			p := r.prefix()
			tables[i].Insert(p, step)
			refs[i].Insert(p, step)
			name(p)
		case 6, 7, 8, 9:
			p := r.prefix()
			if got, want := tables[i].Remove(p), refs[i].Remove(p); got != want {
				return fmt.Errorf("step %d: Remove(%v) on member %d = %v, reference %v", step, p, i, got, want)
			}
			name(p)
		case 10, 11:
			if len(tables) < 5 {
				tables, refs = append(tables, tables[i].Clone()), append(refs, refs[i].Clone())
			}
		case 12:
			// A bulk fill through a reservation that may outlast it, so
			// the Inserts, Removes and Clones that follow meet a table
			// still handing out reserved slots.
			n := int(r.byte() % 8)
			tables[i].Reserve(n)
			for fill := int(r.byte()) % (n + 1); fill > 0; fill-- {
				p := r.prefix()
				tables[i].Insert(p, step)
				refs[i].Insert(p, step)
				name(p)
			}
		default:
			probes = append(probes, r.addr())
		}
		for j := range tables {
			if err := matchesReference(tables[j], refs[j], prefixes, probes); err != nil {
				return fmt.Errorf("step %d (op %#x on member %d): member %d: %v", step, op, i, j, err)
			}
		}
	}
	return nil
}

// TestTableMatchesReference holds the compressed trie to the one-bit trie
// it replaced over random mixed IPv4/IPv6 sequences of inserts, removes,
// reserved bulk fills, clones, gets, lookups and walks.
func TestTableMatchesReference(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		data := make([]byte, 500)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := runOps(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRemoveSplicesForks pins the shape Remove leaves: a fork with no value
// goes when one of its sides does, a valued node with one child is
// replaced by the child, and removing everything empties both roots.
func TestRemoveSplicesForks(t *testing.T) {
	tb := New[int]()
	ps := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/16", "10.0.2.0/24", "2001:db8::/64", "2001:db8:0:1::/64"}
	for i, s := range ps {
		tb.Insert(mustPfx(s), i)
	}
	if err := checkShape(tb); err != nil {
		t.Fatal(err)
	}
	snap := tb.Clone()
	for _, s := range ps {
		if !tb.Remove(mustPfx(s)) {
			t.Fatalf("Remove(%s) missed", s)
		}
		if err := checkShape(tb); err != nil {
			t.Fatalf("after Remove(%s): %v", s, err)
		}
	}
	if tb.v4 != nil || tb.v6 != nil || tb.Len() != 0 {
		t.Fatalf("emptied table keeps roots %v, %v and Len %d", tb.v4, tb.v6, tb.Len())
	}
	if got := snap.Prefixes(); len(got) != len(ps) {
		t.Fatalf("the clone lost prefixes to the original's removes: %v", got)
	}
	if err := checkShape(snap); err != nil {
		t.Fatal(err)
	}
}

// FuzzTable runs arbitrary operation sequences through runOps.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x07, 0x0a, 0x11, 0x10, 0x07, 0x03, 0x16, 0x00, 0x00, 0x07, 0x0c, 0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0xff, 0x09, 0x0b, 0x01, 0x01, 0x0f, 0x04, 0x16, 0x01, 0xff, 0x09, 0x1c, 0x01, 0x01})
	f.Add([]byte{0x02, 0x80, 0x12, 0x05, 0x02, 0x00, 0x12, 0x05, 0x0a, 0x02, 0x00, 0x13, 0x03, 0x17, 0x80, 0x12, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		if err := runOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReserveFillsFromSlab: a table that reserved room for n prefixes
// takes every node and value of their n Inserts from its two arrays, so
// the whole fill costs the same few heap objects at 1, 7, 64 and 500
// prefixes, in either family and however they nest (the trie's bound of
// 2n-1 nodes is the reservation's). After a Clone, both tables write
// their own nodes and values: a shared slab node is copied before a
// write, and the room left is no one's.
func TestReserveFillsFromSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 500} {
		prefixes := make([]netip.Prefix, 0, n)
		seen := map[netip.Prefix]bool{}
		for len(prefixes) < n {
			var p netip.Prefix
			if n > 64 { // more prefixes than the small universe holds
				var a [4]byte
				rng.Read(a[:])
				p = netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.Intn(25)).Masked()
			} else {
				b := make([]byte, 3)
				rng.Read(b)
				p = (&opReader{data: b}).prefix()
			}
			if !seen[p] {
				seen[p] = true
				prefixes = append(prefixes, p)
			}
		}
		var tb *Table[int]
		allocs := testing.AllocsPerRun(5, func() {
			tb = New[int]()
			tb.Reserve(n)
			for i, p := range prefixes {
				tb.Insert(p, i)
			}
		})
		// The table, its owner mark and the two arrays.
		if allocs > 4 {
			t.Fatalf("%d reserved Inserts allocate %v objects, want at most 4", n, allocs)
		}
		ref := newRef[int]()
		for i, p := range prefixes {
			ref.Insert(p, i)
		}
		if err := matchesReference(tb, ref, prefixes, nil); err != nil {
			t.Fatalf("%d prefixes: %v", n, err)
		}
		cl, cref := tb.Clone(), ref.Clone()
		for i, p := range prefixes[:n/2+1] {
			tb.Insert(p, -i)
			ref.Insert(p, -i)
			cl.Remove(p)
			cref.Remove(p)
		}
		if err := matchesReference(tb, ref, prefixes, nil); err != nil {
			t.Fatalf("%d prefixes, original after the clone: %v", n, err)
		}
		if err := matchesReference(cl, cref, prefixes, nil); err != nil {
			t.Fatalf("%d prefixes, clone: %v", n, err)
		}
	}
}
