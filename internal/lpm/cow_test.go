package lpm

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// sortedPrefixes orders prefixes the way Walk used to: collect everything,
// then sort by (address, length) with netip's address order, which puts
// IPv4 before IPv6. The streaming pre-order walk must reproduce it.
func sortedPrefixes[V any](m map[netip.Prefix]V) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.SortFunc(out, func(x, y netip.Prefix) int {
		if c := x.Addr().Compare(y.Addr()); c != 0 {
			return c
		}
		return cmp.Compare(x.Bits(), y.Bits())
	})
	return out
}

// checkAgainstModel verifies everything a table lets a caller observe
// against a plain map: Len, Walk (order and values), Get, and Lookup
// against a linear scan.
func checkAgainstModel(tb *Table[int], model map[netip.Prefix]int, probes []netip.Addr) error {
	if tb.Len() != len(model) {
		return fmt.Errorf("Len = %d, model has %d", tb.Len(), len(model))
	}
	want := sortedPrefixes(model)
	i := 0
	var err error
	tb.Walk(func(p netip.Prefix, v int) bool {
		switch {
		case i >= len(want):
			err = fmt.Errorf("Walk visits extra prefix %v", p)
		case p != want[i]:
			err = fmt.Errorf("Walk visit %d = %v, want %v", i, p, want[i])
		case v != model[p]:
			err = fmt.Errorf("Walk: %v = %d, model %d", p, v, model[p])
		}
		i++
		return err == nil
	})
	if err != nil {
		return err
	}
	if i != len(want) {
		return fmt.Errorf("Walk visited %d prefixes, want %d", i, len(want))
	}
	for p, v := range model {
		if got, ok := tb.Get(p); !ok || got != v {
			return fmt.Errorf("Get(%v) = %d, %v; model %d", p, got, ok, v)
		}
	}
	for _, a := range probes {
		var best netip.Prefix
		found := false
		for p := range model {
			if p.Contains(a) && (!found || p.Bits() > best.Bits()) {
				best, found = p, true
			}
		}
		v, p, ok := tb.Lookup(a)
		if ok != found || (ok && (p != best || v != model[best])) {
			return fmt.Errorf("Lookup(%v) = %d, %v, %v; model %v, %v", a, v, p, ok, best, found)
		}
	}
	return nil
}

// TestCloneFamilyMatchesModels is the copy-on-write contract as a
// model-based property: a family of tables grows by Clone, every member is
// mutated at random, and after every step every member still equals its
// own map model — so no Insert or Remove on one member is ever seen
// through another, however the members share trie nodes.
func TestCloneFamilyMatchesModels(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A small universe, so prefixes nest, collide and get re-inserted.
		randAddr := func() netip.Addr {
			if rng.Intn(3) == 0 {
				var b [16]byte
				b[0], b[1] = 0x20, 0x01
				b[2], b[15] = byte(rng.Intn(2))<<7, byte(rng.Intn(4))
				return netip.AddrFrom16(b)
			}
			return netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)) << 7, 0, byte(rng.Intn(4))})
		}
		randPrefix := func() netip.Prefix {
			a := randAddr()
			lens := []int{0, 1, 8, 9, 16, 17, 24, 30, 31, 32}
			if a.Is6() {
				lens = []int{0, 16, 17, 64, 126, 127, 128}
			}
			return netip.PrefixFrom(a, lens[rng.Intn(len(lens))]).Masked()
		}
		var probes []netip.Addr
		for i := 0; i < 24; i++ {
			probes = append(probes, randAddr())
		}

		tables := []*Table[int]{New[int]()}
		models := []map[netip.Prefix]int{{}}
		for step := 0; step < 300; step++ {
			i := rng.Intn(len(tables))
			op := "nothing"
			switch r := rng.Intn(10); {
			case r < 5:
				op = "insert"
				p := randPrefix()
				tables[i].Insert(p, step)
				models[i][p] = step
			case r < 8:
				op = "remove"
				p := randPrefix()
				_, had := models[i][p]
				if got := tables[i].Remove(p); got != had {
					t.Fatalf("seed %d step %d: Remove(%v) = %v, model had it: %v", seed, step, p, got, had)
				}
				delete(models[i], p)
			case len(tables) < 6:
				op = "clone"
				tables = append(tables, tables[i].Clone())
				m := make(map[netip.Prefix]int, len(models[i]))
				for p, v := range models[i] {
					m[p] = v
				}
				models = append(models, m)
			}
			for j := range tables {
				if err := checkAgainstModel(tables[j], models[j], probes); err != nil {
					t.Fatalf("seed %d step %d (%s on member %d): member %d: %v", seed, step, op, i, j, err)
				}
			}
		}
	}
}

// TestWalkMatchesCollectAndSort pins the streaming walk to the order of
// the collect-and-sort walk it replaced, on the shapes where pre-order
// and (address, length) order could plausibly part: both families mixed,
// nested prefixes sharing an address, default routes and host routes.
func TestWalkMatchesCollectAndSort(t *testing.T) {
	model := map[netip.Prefix]int{}
	tb := New[int]()
	for i, s := range []string{
		"::/0", "0.0.0.0/0", "255.255.255.255/32", "0.0.0.0/32", "0.0.0.0/1", "128.0.0.0/1",
		"10.0.0.0/8", "10.0.0.0/9", "10.0.0.0/32", "10.128.0.0/9", "10.0.0.1/32", "9.255.255.255/32",
		"::/128", "::1/128", "::/1", "8000::/1", "2001:db8::/32", "2001:db8::/64", "2001:db8::/128",
		"2001:db8:0:1::/64", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", "::ffff:10.0.0.0/104",
	} {
		tb.Insert(mustPfx(s), i)
		model[mustPfx(s)] = i
	}
	if err := checkAgainstModel(tb, model, nil); err != nil {
		t.Fatal(err)
	}
	want := sortedPrefixes(model)
	if want[0] != mustPfx("0.0.0.0/0") || want[len(want)-1] != mustPfx("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128") {
		t.Fatalf("oracle order is off: %v", want)
	}
	if got := tb.Prefixes(); !slices.Equal(got, want) {
		t.Fatalf("Prefixes = %v, want %v", got, want)
	}
	// Early stop at every position, across the family boundary too.
	for stop := 1; stop <= len(want); stop++ {
		var got []netip.Prefix
		tb.Walk(func(p netip.Prefix, _ int) bool {
			got = append(got, p)
			return len(got) < stop
		})
		if !slices.Equal(got, want[:stop]) {
			t.Fatalf("walk stopped after %d = %v, want %v", stop, got, want[:stop])
		}
	}
}
