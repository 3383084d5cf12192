package ospf

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

func newSched() *event.Scheduler { return event.NewScheduler() }

// TestLSAAgingExpiresStaleLies verifies MaxAge expiry: a lie injected with
// a nearly-expired age ages out everywhere and routing reverts — the
// protocol's self-healing against a crashed controller that never
// refreshes or withdraws its lies.
func TestLSAAgingExpiresStaleLies(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3"))
	lie := fig1cLies(tp)[0] // fB
	lie.Header.Age = MaxAgeSeconds - 30
	if err := inj.OriginateForeign(lie); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); got["R3"] != 1 {
		t.Fatalf("lie not active: %v", got)
	}

	// 30 virtual seconds later the lie reaches MaxAge; the next sweep
	// (60 s period) purges it on every router.
	d.Scheduler().RunUntil(d.Scheduler().Now() + 150*time.Second)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := blueRoute(t, tp, d, "B"); len(got) != 1 || got["R2"] != 1 {
		t.Fatalf("expired lie still routing: %v", got)
	}
	for n, r := range d.Routers() {
		if len(r.DB().ByType(TypeFake)) != 0 {
			t.Fatalf("%s still stores the expired lie", tp.Name(n))
		}
	}
}

// TestRefreshKeepsOwnLSAsAlive verifies the counterpart: self-originated
// LSAs are re-floods before MaxAge, so a healthy network never expires
// its own state.
func TestRefreshKeepsOwnLSAsAlive(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{})
	d := NewDomain(tp, newSched(), Config{})
	d.Start()
	if _, err := d.RunUntilConverged(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	b := d.Router(tp.MustNode("B"))
	key := Key{Type: TypeRouter, AdvRouter: b.ID(), LSID: 0}
	first, ok := b.DB().Get(key)
	if !ok {
		t.Fatal("B holds no router LSA of its own")
	}
	firstSeq := first.Header.Seq
	// Run one virtual hour: ages would hit MaxAge without refresh.
	const run = 3700 * time.Second
	d.Scheduler().RunUntil(run)
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 120*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.ConvergedIdentically(); err != nil {
		t.Fatal(err)
	}
	// All routing state intact.
	if got := blueRoute(t, tp, d, "A"); len(got) != 1 || got["B"] != 1 {
		t.Fatalf("routing decayed: %v", got)
	}
	// Seq numbers advanced by every refresh: one per refreshPeriod.
	lsa, ok := b.DB().Get(key)
	if want := firstSeq + uint32(run/refreshPeriod); !ok || lsa.Header.Seq < want {
		t.Fatalf("refresh did not advance seq from %d to %d: %+v", firstSeq, want, lsa)
	}
}

// TestEffectiveAgeSaturates checks the aging arithmetic.
func TestEffectiveAgeSaturates(t *testing.T) {
	db := NewLSDB()
	now := time.Duration(0)
	db.SetClock(func() time.Duration { return now })
	l := &LSA{Header: Header{Type: TypePrefix, AdvRouter: 1, LSID: 0, Seq: 1, Age: 100}}
	db.Install(l)
	k := l.Header.Key()
	if got := db.EffectiveAge(k); got != 100 {
		t.Fatalf("age = %d, want 100", got)
	}
	now = 50 * time.Second
	if got := db.EffectiveAge(k); got != 150 {
		t.Fatalf("age = %d, want 150", got)
	}
	now = 100000 * time.Second
	if got := db.EffectiveAge(k); got != MaxAgeSeconds {
		t.Fatalf("age = %d, want saturation at %d", got, MaxAgeSeconds)
	}
	if exp := db.Expired(); len(exp) != 1 || exp[0] != k {
		t.Fatalf("Expired = %v", exp)
	}
	if got := db.EffectiveAge(Key{Type: TypeRouter, AdvRouter: 9}); got != MaxAgeSeconds {
		t.Fatalf("missing key age = %d", got)
	}
}

// TestFlushTombstonesLastOneAgeSweep: a withdrawn lie leaves a flush
// tombstone on every router. The tombstone stays at least ageSweepEvery,
// so a retransmission of the withdrawn instance still in flight cannot
// resurrect it, and the sweep prunes it within two sweep periods.
func TestFlushTombstonesLastOneAgeSweep(t *testing.T) {
	tp, d := startFig1(t)
	inj := d.Router(tp.MustNode("R3"))
	lie := fig1cLies(tp)[0]
	if err := inj.OriginateForeign(lie); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	w := lie.Clone()
	w.Header.Age = MaxAgeSeconds
	if err := inj.OriginateForeign(w); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilConverged(d.Scheduler().Now() + 60*time.Second); err != nil {
		t.Fatal(err)
	}
	k := lie.Header.Key()
	first, last := time.Duration(1<<62), time.Duration(0)
	for n, r := range d.Routers() {
		m, ok := r.flushed[k]
		if !ok {
			t.Fatalf("%s holds no tombstone for the withdrawn lie", tp.Name(n))
		}
		first, last = min(first, m.at), max(last, m.at)
	}
	d.Scheduler().RunUntil(first + ageSweepEvery - 1)
	for n, r := range d.Routers() {
		if _, ok := r.flushed[k]; !ok {
			t.Fatalf("%s pruned its tombstone before ageSweepEvery (%v) passed", tp.Name(n), ageSweepEvery)
		}
	}
	d.Scheduler().RunUntil(last + 2*ageSweepEvery)
	for n, r := range d.Routers() {
		if len(r.flushed) != 0 {
			t.Fatalf("%s still holds %d tombstones two sweeps on", tp.Name(n), len(r.flushed))
		}
	}
}
