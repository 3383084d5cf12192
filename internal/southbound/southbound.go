// Package southbound connects the Fibbing controller to the network: it
// turns computed lies into fake LSAs, originates them at the controller's
// attachment router (the point of presence, R3 in the demo), tracks what
// is installed, and reconciles towards new desired lie sets with minimal
// churn, through an in-process injector.
package southbound

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/ospf"
)

// Injector abstracts "flood this LSA into the IGP".
type Injector interface {
	Inject(l *ospf.LSA) error
}

// DirectInjector floods via an in-process router (simulation path).
type DirectInjector struct {
	Router *ospf.Router
}

// Inject implements Injector.
func (d DirectInjector) Inject(l *ospf.LSA) error {
	return d.Router.OriginateForeign(l)
}

type lieEntry struct {
	lsid uint32
	seq  uint32
	lie  fibbing.Lie
}

// LieManager owns the controller's live lies: it allocates LSIDs,
// manages sequence numbers, and reconciles installed lies against desired
// sets with inject/withdraw diffs (identical lies are left untouched, so
// reapplying a superset never perturbs existing paths).
type LieManager struct {
	inj Injector
	adv ospf.RouterID

	nextLSID uint32
	// installed lies per prefix name, as a multiset (duplicated lies are
	// the point of Fibbing's uneven splitting).
	installed map[string][]lieEntry
}

// NewLieManager builds a manager advertising from the given controller ID.
func NewLieManager(inj Injector, adv ospf.RouterID) *LieManager {
	if !adv.IsController() {
		panic("southbound: advertising ID must be in the controller range")
	}
	return &LieManager{inj: inj, adv: adv, installed: make(map[string][]lieEntry)}
}

// Installed returns the current lies for a prefix (copy).
func (m *LieManager) Installed(prefix string) []fibbing.Lie {
	entries := m.installed[prefix]
	out := make([]fibbing.Lie, len(entries))
	for i, e := range entries {
		out[i] = e.lie
	}
	return out
}

// InstalledAll snapshots every prefix's installed lies. Prefixes without
// live lies are absent from the map.
func (m *LieManager) InstalledAll() map[string][]fibbing.Lie {
	out := make(map[string][]fibbing.Lie, len(m.installed))
	for prefix := range m.installed {
		out[prefix] = m.Installed(prefix)
	}
	return out
}

// LieCount returns the total number of live lies.
func (m *LieManager) LieCount() int {
	n := 0
	for _, es := range m.installed {
		n += len(es)
	}
	return n
}

// Delta is the minimal on-the-wire change one Commit performed: the lies
// it injected and the lies it withdrew. Lies present before and after are
// never re-signalled, so an empty delta means the IGP saw no traffic at
// all. It is the southbound stage of the delta pipeline: each injected or
// withdrawn lie becomes one fake-LSA change in every router's LSDB change
// log and flows from there through incremental SPF into FIB diffs.
type Delta struct {
	Injected  []fibbing.Lie
	Withdrawn []fibbing.Lie
}

// Empty reports whether the reconciliation touched the wire.
func (d Delta) Empty() bool { return len(d.Injected) == 0 && len(d.Withdrawn) == 0 }

// signal is one fake LSA of a commit: a lie's entry at the sequence
// number it goes out with, and whether it is a withdrawal (MaxAge).
type signal struct {
	prefix   string
	e        lieEntry
	withdraw bool
}

func (m *LieManager) send(e lieEntry, maxAge bool) error {
	lsa := e.lie.ToLSA(m.adv, e.lsid, e.seq)
	if maxAge {
		lsa.Header.Age = ospf.MaxAgeSeconds
	}
	return m.inj.Inject(lsa)
}

// Commit reconciles the installed lies towards overlay, under the
// planner's overlay rule: a named prefix ends with exactly its lies (nil
// withdraws them all), and an unnamed prefix keeps its own. Lies present
// before and after stay untouched; extra installed lies are withdrawn
// (MaxAge re-origination) and missing ones injected fresh. The commit is
// one ordered list of LSAs: prefixes in name order, and within a prefix
// its withdrawals first, then its injections in lieCompare order. It
// returns the delta it signalled.
//
// Commit is all-or-nothing: when the injector fails, the LSAs already
// signalled are undone in reverse order (an injection is MaxAged out, a
// withdrawal re-originated under its own LSID) before the error returns,
// so a failed Commit leaves every live lie as it was. If an undo fails
// too, the bookkeeping tracks what is actually live on the wire and the
// error reports both failures.
func (m *LieManager) Commit(overlay map[string][]fibbing.Lie) (Delta, error) {
	var sigs []signal
	next := make(map[string][]lieEntry, len(overlay))
	for _, prefix := range slices.Sorted(maps.Keys(overlay)) {
		// Multiset diff on the Lie value.
		remaining := make(map[fibbing.Lie]int, len(overlay[prefix]))
		for _, l := range overlay[prefix] {
			remaining[l]++
		}
		var keep []lieEntry
		for _, e := range m.installed[prefix] {
			if remaining[e.lie] > 0 {
				remaining[e.lie]--
				keep = append(keep, e)
				continue
			}
			e.seq++ // the MaxAge copy must beat the live one
			sigs = append(sigs, signal{prefix: prefix, e: e, withdraw: true})
		}
		next[prefix] = keep
		var missing []fibbing.Lie
		for l, n := range remaining {
			for i := 0; i < n; i++ {
				missing = append(missing, l)
			}
		}
		slices.SortFunc(missing, lieCompare)
		for _, l := range missing {
			sigs = append(sigs, signal{prefix: prefix, e: lieEntry{seq: 1, lie: l}})
		}
	}
	var delta Delta
	for i := range sigs {
		s := &sigs[i]
		verb := "withdraw"
		if !s.withdraw {
			verb, s.e.lsid = "inject", m.nextLSID+1
		}
		if err := m.send(s.e, s.withdraw); err != nil {
			return Delta{}, m.undo(sigs[:i], fmt.Errorf("southbound: %s %v: %w", verb, s.e.lie, err))
		}
		if s.withdraw {
			delta.Withdrawn = append(delta.Withdrawn, s.e.lie)
			continue
		}
		m.nextLSID = s.e.lsid
		next[s.prefix] = append(next[s.prefix], s.e)
		delta.Injected = append(delta.Injected, s.e.lie)
	}
	for prefix, entries := range next {
		m.setInstalled(prefix, entries)
	}
	return delta, nil
}

// undo reverts the signals a failed commit already sent, in reverse:
// each goes out again at the next sequence number with its age flipped.
// The installed lies are still the pre-commit ones; a signal whose undo
// fails stands, and the bookkeeping follows it.
func (m *LieManager) undo(sent []signal, cause error) error {
	var errs []error
	for i := len(sent) - 1; i >= 0; i-- {
		s := sent[i]
		e := s.e
		e.seq++
		es := m.installed[s.prefix]
		same := func(x lieEntry) bool { return x.lsid == e.lsid }
		if err := m.send(e, !s.withdraw); err != nil {
			errs = append(errs, err)
			if s.withdraw {
				m.setInstalled(s.prefix, slices.DeleteFunc(es, same))
			} else {
				m.setInstalled(s.prefix, append(es, s.e))
			}
			continue
		}
		if s.withdraw {
			es[slices.IndexFunc(es, same)] = e // re-originated: the live copy is newer
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%w (undo also failed: %v)", cause, errs)
	}
	return cause
}

// Apply reconciles one prefix's lies towards desired: Commit of the
// one-prefix overlay.
func (m *LieManager) Apply(prefix string, desired []fibbing.Lie) (Delta, error) {
	return m.Commit(map[string][]fibbing.Lie{prefix: desired})
}

func (m *LieManager) setInstalled(prefix string, entries []lieEntry) {
	if len(entries) == 0 {
		delete(m.installed, prefix)
		return
	}
	m.installed[prefix] = entries
}

// WithdrawAll flushes every live lie in one commit (controller shutdown,
// as Fibbing prescribes: the network falls back to pure IGP routing).
func (m *LieManager) WithdrawAll() error {
	overlay := make(map[string][]fibbing.Lie, len(m.installed))
	for prefix := range m.installed {
		overlay[prefix] = nil
	}
	_, err := m.Commit(overlay)
	return err
}

func lieCompare(a, b fibbing.Lie) int {
	if c := cmp.Compare(a.Attach, b.Attach); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Via, b.Via); c != 0 {
		return c
	}
	return cmp.Compare(a.Cost, b.Cost)
}
