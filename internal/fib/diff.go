package fib

// This file is the FIB half of the delta pipeline: routers emit Diffs
// (per-prefix route changes) instead of whole tables, tables apply them,
// and the data plane asks a Diff which destinations lost or changed their
// next hops so it can re-path only the flows that care.

import (
	"fmt"
	"net/netip"
	"strings"

	"fibbing.net/fibbing/internal/topo"
)

// RouteChange is one FIB entry mutation: an upsert of Route, or the
// removal of Prefix when Remove is set.
type RouteChange struct {
	Prefix netip.Prefix
	Route  Route // ignored when Remove
	Remove bool
}

// Diff is an ordered batch of route changes for one router's table.
type Diff struct {
	Router  topo.NodeID
	Changes []RouteChange
}

// NewDiff returns an empty diff for router. The change list grows on
// append: most SPF runs change no route, and the rest change a few.
func NewDiff(router topo.NodeID) *Diff {
	return &Diff{Router: router}
}

// Empty reports whether the diff carries no changes.
func (d *Diff) Empty() bool { return d == nil || len(d.Changes) == 0 }

// Upsert appends an install/replace change.
func (d *Diff) Upsert(r Route) {
	d.Changes = append(d.Changes, RouteChange{Prefix: r.Prefix, Route: r})
}

// Delete appends a removal change.
func (d *Diff) Delete(p netip.Prefix) {
	d.Changes = append(d.Changes, RouteChange{Prefix: p, Remove: true})
}

// String renders the diff for logs: "+prefix via ..." / "-prefix".
func (d *Diff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fib diff @%d:", d.Router)
	for _, c := range d.Changes {
		if c.Remove {
			fmt.Fprintf(&b, " -%v", c.Prefix)
		} else {
			fmt.Fprintf(&b, " +%v", c.Prefix)
		}
	}
	return b.String()
}

// Equal reports whether two routes are identical entry for entry. Both
// routes must be Normalized (Install normalizes), which Table guarantees
// for every stored route.
func (r Route) Equal(o Route) bool {
	if r.Prefix != o.Prefix || r.Distance != o.Distance || r.Local != o.Local ||
		len(r.NextHops) != len(o.NextHops) {
		return false
	}
	for i := range r.NextHops {
		if r.NextHops[i] != o.NextHops[i] {
			return false
		}
	}
	return true
}

// Clone returns a table with the same router identity, salt, and routes
// in O(1): the copy-on-write trie is shared until either side changes a
// route, and stored routes are immutable, so neither table ever observes
// the other's later Install, Remove or ApplyDiff.
func (t *Table) Clone() *Table {
	return &Table{Router: t.Router, Salt: t.Salt, lpm: t.lpm.Clone()}
}

// ApplyDiff applies every change in order. Upserts are validated like
// Install; removals of absent prefixes are no-ops.
func (t *Table) ApplyDiff(d *Diff) error {
	if d.Empty() {
		return nil
	}
	for _, c := range d.Changes {
		if c.Remove {
			t.lpm.Remove(c.Prefix)
			continue
		}
		if err := t.Install(c.Route); err != nil {
			return err
		}
	}
	return nil
}

// DiffTables returns the changes that turn old into new (both walked in
// prefix order, so the diff is deterministic). Either table may be nil,
// meaning empty. From an empty old table (a router's first SPF run) the
// diff installs every route of new, built at its exact size straight from
// new's walk.
func DiffTables(router topo.NodeID, old, new *Table) *Diff {
	if old == nil || old.Len() == 0 {
		return installAll(router, new)
	}
	var newRoutes []Route
	if new != nil {
		newRoutes = new.Routes()
	}
	return mergeDiff(router, old.Routes(), newRoutes)
}

// installAll is the diff from an empty table to t: one upsert per route,
// in prefix order.
func installAll(router topo.NodeID, t *Table) *Diff {
	d := NewDiff(router)
	if t == nil || t.Len() == 0 {
		return d
	}
	d.Changes = make([]RouteChange, 0, t.Len())
	t.lpm.Walk(func(_ netip.Prefix, r Route) bool {
		d.Upsert(r)
		return true
	})
	return d
}

// mergeDiff walks two prefix-ordered route lists side by side.
func mergeDiff(router topo.NodeID, oldRoutes, newRoutes []Route) *Diff {
	d := NewDiff(router)
	i, j := 0, 0
	for i < len(oldRoutes) && j < len(newRoutes) {
		a, b := oldRoutes[i], newRoutes[j]
		switch {
		case a.Prefix == b.Prefix:
			if !a.Equal(b) {
				d.Upsert(b)
			}
			i++
			j++
		case prefixLess(a.Prefix, b.Prefix):
			d.Delete(a.Prefix)
			i++
		default:
			d.Upsert(b)
			j++
		}
	}
	for ; i < len(oldRoutes); i++ {
		d.Delete(oldRoutes[i].Prefix)
	}
	for ; j < len(newRoutes); j++ {
		d.Upsert(newRoutes[j])
	}
	return d
}

func prefixLess(a, b netip.Prefix) bool {
	if a.Addr() != b.Addr() {
		return a.Addr().Less(b.Addr())
	}
	return a.Bits() < b.Bits()
}
