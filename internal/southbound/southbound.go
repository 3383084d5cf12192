// Package southbound connects the Fibbing controller to the network: it
// turns computed lies into fake LSAs, originates them at the controller's
// attachment router (the point of presence, R3 in the demo), tracks what
// is installed, and reconciles towards new desired lie sets with minimal
// churn, through an in-process injector.
package southbound

import (
	"cmp"
	"fmt"
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

// Delta is the minimal on-the-wire change one Apply performed: the lies
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

// Apply reconciles the installed lies for one prefix towards desired:
// lies present in both stay untouched; extra installed lies are withdrawn
// (MaxAge re-origination); missing lies are injected fresh. It returns
// the delta it signalled.
//
// Apply is atomic per prefix: when the injector fails mid-batch, the lies
// it already signalled in this call are compensated (fresh injections are
// MaxAged out, withdrawals are re-originated) before the error returns,
// so a failed Apply leaves the prefix's live lie set exactly as it was.
// If a compensation itself fails, the bookkeeping tracks what is actually
// live on the wire and the returned error reports both failures.
func (m *LieManager) Apply(prefix string, desired []fibbing.Lie) (Delta, error) {
	cur := m.installed[prefix]

	// Multiset diff on the Lie value.
	remaining := make(map[fibbing.Lie]int, len(desired))
	for _, l := range desired {
		remaining[l]++
	}
	var keep []lieEntry
	var drop []lieEntry
	for _, e := range cur {
		if remaining[e.lie] > 0 {
			remaining[e.lie]--
			keep = append(keep, e)
		} else {
			drop = append(drop, e)
		}
	}

	var withdrawn []lieEntry // drops signalled so far (seq at their MaxAge origination)
	var injected []lieEntry  // fresh lies signalled so far
	// fail unwinds the lies this call already signalled, in reverse, and
	// records whatever actually ends up live: kept entries, drops whose
	// withdrawal never went out, compensated state for the rest.
	fail := func(cause error) (Delta, error) {
		final := append([]lieEntry(nil), keep...)
		final = append(final, drop[len(withdrawn):]...) // never signalled: still live
		var rollbackErrs []error
		for i := len(injected) - 1; i >= 0; i-- {
			e := injected[i]
			lsa := e.lie.ToLSA(m.adv, e.lsid, e.seq+1)
			lsa.Header.Age = ospf.MaxAgeSeconds
			if err := m.inj.Inject(lsa); err != nil {
				rollbackErrs = append(rollbackErrs, err)
				final = append(final, e) // compensation failed: the lie is live
			}
		}
		for i := len(withdrawn) - 1; i >= 0; i-- {
			e := withdrawn[i]
			e.seq++ // the fresh origination must beat the MaxAge LSA
			if err := m.inj.Inject(e.lie.ToLSA(m.adv, e.lsid, e.seq)); err != nil {
				rollbackErrs = append(rollbackErrs, err)
				continue // stays withdrawn
			}
			final = append(final, e)
		}
		m.setInstalled(prefix, final)
		if len(rollbackErrs) > 0 {
			return Delta{}, fmt.Errorf("%w (rollback also failed: %v)", cause, rollbackErrs)
		}
		return Delta{}, cause
	}

	// Withdraw removed lies.
	for _, e := range drop {
		lsa := e.lie.ToLSA(m.adv, e.lsid, e.seq+1)
		lsa.Header.Age = ospf.MaxAgeSeconds
		if err := m.inj.Inject(lsa); err != nil {
			return fail(fmt.Errorf("southbound: withdraw %v: %w", e.lie, err))
		}
		e.seq++
		withdrawn = append(withdrawn, e)
	}
	// Inject new lies, deterministically ordered.
	var missing []fibbing.Lie
	for l, n := range remaining {
		for i := 0; i < n; i++ {
			missing = append(missing, l)
		}
	}
	slices.SortFunc(missing, lieCompare)
	for _, l := range missing {
		lsid := m.nextLSID + 1
		e := lieEntry{lsid: lsid, seq: 1, lie: l}
		if err := m.inj.Inject(l.ToLSA(m.adv, e.lsid, e.seq)); err != nil {
			return fail(fmt.Errorf("southbound: inject %v: %w", l, err))
		}
		m.nextLSID = lsid
		injected = append(injected, e)
	}
	keep = append(keep, injected...)
	m.setInstalled(prefix, keep)
	var delta Delta
	for _, e := range withdrawn {
		delta.Withdrawn = append(delta.Withdrawn, e.lie)
	}
	for _, e := range injected {
		delta.Injected = append(delta.Injected, e.lie)
	}
	return delta, nil
}

func (m *LieManager) setInstalled(prefix string, entries []lieEntry) {
	if len(entries) == 0 {
		delete(m.installed, prefix)
		return
	}
	m.installed[prefix] = entries
}

// Transaction is an all-or-nothing commit of a multi-prefix lie set: each
// Apply reconciles one prefix, and a failure rolls every prefix the
// transaction already touched back to its pre-transaction lies. The
// controller's Planner commits whole Plans through it so a mid-apply
// injector failure can never leave a half-installed multi-prefix state.
type Transaction struct {
	m      *LieManager
	prev   map[string][]fibbing.Lie
	order  []string
	delta  Delta
	closed bool
}

// Begin opens a transaction on the manager. Transactions must not
// interleave with each other or with direct Apply calls.
func (m *LieManager) Begin() *Transaction {
	return &Transaction{m: m, prev: make(map[string][]fibbing.Lie)}
}

// Apply reconciles one prefix towards desired (nil/empty withdraws all of
// its lies). On an injector error the transaction rolls back every prefix
// it touched — including this one, whose per-prefix Apply already
// self-compensated — and returns the error; the transaction is closed.
func (t *Transaction) Apply(prefix string, desired []fibbing.Lie) error {
	if t.closed {
		return fmt.Errorf("southbound: transaction already closed")
	}
	if _, seen := t.prev[prefix]; !seen {
		t.prev[prefix] = t.m.Installed(prefix)
		t.order = append(t.order, prefix)
	}
	delta, err := t.m.Apply(prefix, desired)
	t.delta.Injected = append(t.delta.Injected, delta.Injected...)
	t.delta.Withdrawn = append(t.delta.Withdrawn, delta.Withdrawn...)
	if err != nil {
		if rerr := t.rollback(); rerr != nil {
			return fmt.Errorf("%w (transaction rollback: %v)", err, rerr)
		}
		return err
	}
	return nil
}

// Commit finalises the transaction and returns the accumulated on-wire
// delta. Committing a transaction that already failed (and so rolled
// back) returns an error: the work was reverted, not applied.
// Further calls on the transaction fail.
func (t *Transaction) Commit() (Delta, error) {
	if t.closed {
		return Delta{}, fmt.Errorf("southbound: transaction already closed")
	}
	t.closed = true
	return t.delta, nil
}

func (t *Transaction) rollback() error {
	t.closed = true
	t.delta = Delta{}
	var errs []error
	for i := len(t.order) - 1; i >= 0; i-- {
		prefix := t.order[i]
		if _, err := t.m.Apply(prefix, t.prev[prefix]); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("southbound: rollback: %v", errs)
	}
	return nil
}

// WithdrawAll flushes every live lie (controller shutdown, as Fibbing
// prescribes: the network falls back to pure IGP routing).
func (m *LieManager) WithdrawAll() error {
	prefixes := make([]string, 0, len(m.installed))
	for prefix := range m.installed {
		prefixes = append(prefixes, prefix)
	}
	slices.Sort(prefixes)
	for _, prefix := range prefixes {
		if _, err := m.Apply(prefix, nil); err != nil {
			return err
		}
	}
	return nil
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
