package fib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"fibbing.net/fibbing/internal/topo"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestDiffTablesAndApply(t *testing.T) {
	old := NewTable(1)
	for _, r := range []Route{
		{Prefix: mustPrefix("10.0.0.0/16"), NextHops: []NextHop{{Node: 2, Link: 1, Weight: 1}}, Distance: 5},
		{Prefix: mustPrefix("10.1.0.0/16"), NextHops: []NextHop{{Node: 3, Link: 2, Weight: 2}}, Distance: 7},
		{Prefix: mustPrefix("10.2.0.0/16"), Local: true},
	} {
		if err := old.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	new := NewTable(1)
	for _, r := range []Route{
		// 10.0/16 unchanged, 10.1/16 reweighted, 10.2/16 gone, 10.3/16 added.
		{Prefix: mustPrefix("10.0.0.0/16"), NextHops: []NextHop{{Node: 2, Link: 1, Weight: 1}}, Distance: 5},
		{Prefix: mustPrefix("10.1.0.0/16"), NextHops: []NextHop{{Node: 3, Link: 2, Weight: 5}}, Distance: 7},
		{Prefix: mustPrefix("10.3.0.0/16"), NextHops: []NextHop{{Node: 4, Link: 3, Weight: 1}}, Distance: 2},
	} {
		if err := new.Install(r); err != nil {
			t.Fatal(err)
		}
	}

	d := DiffTables(1, old, new)
	if len(d.Changes) != 3 {
		t.Fatalf("diff has %d changes, want 3: %v", len(d.Changes), d)
	}
	applied := old.Clone()
	if err := applied.ApplyDiff(d); err != nil {
		t.Fatal(err)
	}
	if got, want := applied.String(), new.String(); got != want {
		t.Fatalf("applied table:\n%s\nwant:\n%s", got, want)
	}
	// The original must be untouched by the clone's mutation.
	if _, ok := old.Get(mustPrefix("10.3.0.0/16")); ok {
		t.Fatal("Clone aliases the original table")
	}
	if !DiffTables(1, new, applied).Empty() {
		t.Fatal("tables differ after applying their own diff")
	}
	if !DiffTables(1, new, new).Empty() {
		t.Fatal("self-diff not empty")
	}
}

func TestDiffTablesNilOld(t *testing.T) {
	new := NewTable(9)
	if err := new.Install(Route{Prefix: mustPrefix("10.0.0.0/8"), Local: true}); err != nil {
		t.Fatal(err)
	}
	d := DiffTables(9, nil, new)
	if len(d.Changes) != 1 || d.Changes[0].Remove {
		t.Fatalf("nil-old diff: %v", d)
	}
	fresh := NewTable(9)
	if err := fresh.ApplyDiff(d); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != new.String() {
		t.Fatal("diff from nil does not rebuild the table")
	}
}

// snapshotFixture returns a table with nested and sibling routes, addresses
// to look up in it, and two diffs that each upsert, replace and remove.
func snapshotFixture(t *testing.T) (*Table, []netip.Addr, [2]*Diff) {
	t.Helper()
	tb := NewTable(1)
	for _, r := range []Route{
		{Prefix: mustPrefix("10.0.0.0/8"), NextHops: []NextHop{{Node: 2, Link: 1, Weight: 1}, {Node: 3, Link: 2, Weight: 1}}, Distance: 5},
		{Prefix: mustPrefix("10.1.0.0/16"), NextHops: []NextHop{{Node: 3, Link: 2, Weight: 2}}, Distance: 7},
		{Prefix: mustPrefix("10.1.2.0/24"), Local: true},
		{Prefix: mustPrefix("2001:db8::/32"), NextHops: []NextHop{{Node: 4, Link: 3, Weight: 1}}, Distance: 3},
	} {
		if err := tb.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	addrs := []netip.Addr{
		netip.MustParseAddr("10.9.9.9"), netip.MustParseAddr("10.1.9.9"), netip.MustParseAddr("10.1.2.3"),
		netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("192.0.2.1"),
	}
	// A route read back from the table shares its next-hop slice with the
	// stored one: re-installing it must not write to that slice.
	kept, _ := tb.Get(mustPrefix("10.0.0.0/8"))
	kept.Distance = 6
	a := NewDiff(1)
	a.Upsert(kept)
	a.Upsert(Route{Prefix: mustPrefix("10.1.0.0/16"), NextHops: []NextHop{{Node: 2, Link: 1, Weight: 1}}, Distance: 4})
	a.Upsert(Route{Prefix: mustPrefix("10.2.0.0/16"), NextHops: []NextHop{{Node: 4, Link: 3, Weight: 1}}, Distance: 2})
	a.Delete(mustPrefix("10.1.2.0/24"))
	b := NewDiff(1)
	b.Upsert(Route{Prefix: mustPrefix("10.1.2.0/24"), NextHops: []NextHop{{Node: 2, Link: 1, Weight: 3}}, Distance: 9})
	b.Upsert(Route{Prefix: mustPrefix("2001:db8:1::/48"), Local: true})
	b.Delete(mustPrefix("10.0.0.0/8"))
	return tb, addrs, [2]*Diff{a, b}
}

// observe renders everything a reader can see of a table.
func observe(tb *Table, addrs []netip.Addr) string {
	s := tb.String()
	for _, a := range addrs {
		r, ok := tb.Lookup(a)
		s += fmt.Sprintf("%v -> %v %+v\n", a, ok, r)
	}
	return s
}

// TestCloneIsSnapshot is the snapshot contract: after Clone, neither table
// sees what ApplyDiff does to the other.
func TestCloneIsSnapshot(t *testing.T) {
	orig, addrs, diffs := snapshotFixture(t)
	before := observe(orig, addrs)
	clone := orig.Clone()
	if err := clone.ApplyDiff(diffs[0]); err != nil {
		t.Fatal(err)
	}
	if got := observe(orig, addrs); got != before {
		t.Fatalf("ApplyDiff on the clone changed the original:\n%s\nwas:\n%s", got, before)
	}
	patched := observe(clone, addrs)
	if patched == before || clone.Len() != orig.Len() {
		t.Fatalf("clone after its diff (len %d, original %d):\n%s", clone.Len(), orig.Len(), patched)
	}
	// And vice versa: the original moves on, the clone stays.
	if err := orig.ApplyDiff(diffs[1]); err != nil {
		t.Fatal(err)
	}
	if got := observe(clone, addrs); got != patched {
		t.Fatalf("ApplyDiff on the original changed the clone:\n%s\nwas:\n%s", got, patched)
	}
	// The same patches on a table built route by route give the same
	// tables: sharing changes the cost of a patch, not its result.
	want, _, _ := snapshotFixture(t)
	if err := want.ApplyDiff(diffs[1]); err != nil {
		t.Fatal(err)
	}
	if got := observe(orig, addrs); got != observe(want, addrs) {
		t.Fatalf("original after its diff:\n%s\nwant:\n%s", got, observe(want, addrs))
	}
}

// TestSnapshotReadableWhilePatchingClone runs the pipeline's ownership
// pattern under the race detector: a table that was handed out keeps being
// read (Lookup, Walk) while its owner patches the clone that replaces it.
func TestSnapshotReadableWhilePatchingClone(t *testing.T) {
	cur, addrs, diffs := snapshotFixture(t)
	for round := 0; round < 20; round++ {
		snap := cur
		want := observe(snap, addrs)
		cur = snap.Clone()
		done := make(chan string)
		go func() {
			got := want
			for i := 0; i < 20 && got == want; i++ {
				got = observe(snap, addrs)
			}
			done <- got
		}()
		err := cur.ApplyDiff(diffs[round%2])
		if got := <-done; got != want {
			t.Fatalf("round %d: snapshot changed under its reader:\n%s\nwas:\n%s", round, got, want)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffFromEmptyMatchesMerge holds DiffTables' empty-old path (a
// router's first SPF run) to the general merge over random tables: the
// same changes in the same order, built at their exact size, whether the
// old table is nil, new, or emptied by removals.
func TestDiffFromEmptyMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	emptied := NewTable(4)
	if err := emptied.Install(Route{Prefix: mustPrefix("10.9.0.0/16"), Local: true}); err != nil {
		t.Fatal(err)
	}
	emptied.Remove(mustPrefix("10.9.0.0/16"))
	for trial := 0; trial < 200; trial++ {
		tbl := NewTable(4)
		for i := rng.Intn(40); i > 0; i-- {
			var p netip.Prefix
			if rng.Intn(4) == 0 {
				p = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(4)), byte(rng.Intn(256))}), 32+rng.Intn(33)).Masked()
			} else {
				p = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(256)), 0}), 8+rng.Intn(17)).Masked()
			}
			r := Route{Prefix: p, Distance: int64(rng.Intn(20))}
			if rng.Intn(5) == 0 {
				r.Local = true
			} else {
				for h := 1 + rng.Intn(3); h > 0; h-- {
					r.NextHops = append(r.NextHops, NextHop{Node: topo.NodeID(rng.Intn(6)), Link: topo.LinkID(rng.Intn(9)), Weight: 1 + rng.Intn(3)})
				}
			}
			if err := tbl.Install(r); err != nil {
				t.Fatal(err)
			}
		}
		want := mergeDiff(4, nil, tbl.Routes())
		for _, old := range []*Table{nil, NewTable(4), emptied} {
			got := DiffTables(4, old, tbl)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, old %v: %v, merge %v", trial, old, got, want)
			}
			if cap(got.Changes) != len(got.Changes) {
				t.Fatalf("trial %d: %d changes in a slice of capacity %d", trial, len(got.Changes), cap(got.Changes))
			}
		}
		if got := DiffTables(4, tbl, nil); !reflect.DeepEqual(got, mergeDiff(4, tbl.Routes(), nil)) {
			t.Fatalf("trial %d: diff to nil %v", trial, got)
		}
	}
}
