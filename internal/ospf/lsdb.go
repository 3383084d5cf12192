package ospf

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"time"
)

// LSDB is a router's link-state database.
type LSDB struct {
	entries map[Key]dbEntry
	now     func() time.Duration
}

// dbEntry is one stored instance and the local virtual time it arrived,
// for aging (effective age = Header.Age + time since installation).
type dbEntry struct {
	lsa *LSA
	at  time.Duration
}

// NewLSDB returns an empty database. The clock (used for aging) may be
// nil, in which case ages are static. Its map is made by the first
// reserve or Install.
func NewLSDB() *LSDB { return &LSDB{} }

// reserve sizes an empty database for n entries; Domain.Start knows how
// many LSAs a router's component originates before it installs them.
func (db *LSDB) reserve(n int) {
	if len(db.entries) == 0 {
		db.entries = make(map[Key]dbEntry, n)
	}
}

// SetClock wires the database to a virtual clock for aging. Set it before
// the first Install: arrival times are read from it.
func (db *LSDB) SetClock(now func() time.Duration) { db.now = now }

// Get returns the stored instance for a key.
func (db *LSDB) Get(k Key) (*LSA, bool) {
	e, ok := db.entries[k]
	return e.lsa, ok
}

// Install stores an LSA unconditionally (freshness decisions are the
// router's job) and returns the instance it replaced, nil if none. The LSA
// is stored as-is; callers must not mutate it after.
func (db *LSDB) Install(l *LSA) (old *LSA) {
	k := l.Header.Key()
	if db.entries == nil {
		db.entries = make(map[Key]dbEntry)
	}
	old = db.entries[k].lsa
	e := dbEntry{lsa: l}
	if db.now != nil {
		e.at = db.now()
	}
	db.entries[k] = e
	return old
}

// EffectiveAge returns the instance's current age in seconds: the age it
// carried on arrival plus the time it has sat in this database, saturating
// at MaxAgeSeconds (OSPF aging semantics).
func (db *LSDB) EffectiveAge(k Key) uint16 {
	e, ok := db.entries[k]
	if !ok {
		return MaxAgeSeconds
	}
	age := uint32(e.lsa.Header.Age)
	if db.now != nil {
		age += uint32((db.now() - e.at) / time.Second)
	}
	if age > uint32(MaxAgeSeconds) {
		return MaxAgeSeconds
	}
	return uint16(age)
}

// Expired returns the keys of all instances that have reached MaxAge and
// must be purged (their originator has stopped refreshing them).
func (db *LSDB) Expired() []Key {
	var out []Key
	for k := range db.entries {
		if db.EffectiveAge(k) >= MaxAgeSeconds {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, keyCompare)
	return out
}

// Remove deletes the instance for a key.
func (db *LSDB) Remove(k Key) {
	delete(db.entries, k)
}

// Len returns the number of stored LSAs.
func (db *LSDB) Len() int { return len(db.entries) }

// All returns all LSAs sorted by key (deterministic iteration).
func (db *LSDB) All() []*LSA {
	out := make([]*LSA, 0, len(db.entries))
	for _, e := range db.entries {
		out = append(out, e.lsa)
	}
	slices.SortFunc(out, func(a, b *LSA) int { return keyCompare(a.Header.Key(), b.Header.Key()) })
	return out
}

// ByType returns all LSAs of one type, sorted by key.
func (db *LSDB) ByType(t LSAType) []*LSA {
	var out []*LSA
	for _, e := range db.entries {
		if e.lsa.Header.Type == t {
			out = append(out, e.lsa)
		}
	}
	slices.SortFunc(out, func(a, b *LSA) int { return keyCompare(a.Header.Key(), b.Header.Key()) })
	return out
}

func keyCompare(a, b Key) int {
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	if c := cmp.Compare(a.AdvRouter, b.AdvRouter); c != 0 {
		return c
	}
	return cmp.Compare(a.LSID, b.LSID)
}

// Digest returns a hash over (key, seq, age-class) of every entry; two
// routers with equal digests hold the same database instance-for-instance.
// Age is folded in only as "maxage or not" so that pure aging drift does
// not break convergence checks.
func (db *LSDB) Digest() [32]byte {
	keys := make([]Key, 0, len(db.entries))
	for k := range db.entries {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, keyCompare)
	h := sha256.New()
	var buf [14]byte
	for _, k := range keys {
		l := db.entries[k].lsa
		buf[0] = byte(k.Type)
		binary.BigEndian.PutUint32(buf[1:], uint32(k.AdvRouter))
		binary.BigEndian.PutUint32(buf[5:], k.LSID)
		binary.BigEndian.PutUint32(buf[9:], l.Header.Seq)
		buf[13] = 0
		if l.Header.Age >= MaxAgeSeconds {
			buf[13] = 1
		}
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// String renders the database for debugging.
func (db *LSDB) String() string {
	var b strings.Builder
	for _, l := range db.All() {
		fmt.Fprintf(&b, "%s seq=%d age=%d", l.Header.Key(), l.Header.Seq, l.Header.Age)
		switch l.Header.Type {
		case TypeRouter:
			for _, rl := range l.RouterLinks {
				fmt.Fprintf(&b, " ->%d(%d)", rl.Neighbor, rl.Metric)
			}
		case TypePrefix:
			fmt.Fprintf(&b, " %v metric=%d", l.Prefix, l.Metric)
		case TypeFake:
			fmt.Fprintf(&b, " %v metric=%d attach=%d cost=%d via=%d",
				l.Prefix, l.Metric, l.AttachedTo, l.AttachCost, l.ForwardVia)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
