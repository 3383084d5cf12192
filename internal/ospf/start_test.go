package ospf

// The synced start's contract: Domain.Start leaves every router where the
// flooded start (refFloodedStart, reference_test.go) leaves it once its
// boot flood has converged, and from there the two run any program of
// changes alike — the same FIB deltas at the same instants, and at every
// checkpoint the same LSDB, FIB, SPF count and packet count per router.
// Where the flood ends within spfDelay, the FIB deltas agree from t=0;
// where link delays make it outlast spfDelay, the flooded start's first
// SPF runs see partial databases, a transient the synced start skips, so
// the records agree from the flood's convergence instant on.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// igpChange is one change of a program: at an offset from the flooded
// start's convergence instant, do acts on the running domain.
type igpChange struct {
	at   time.Duration
	what string
	do   func(d *Domain) error
}

// igpProgram is what the oracle runs both starts through. Every instant
// is an offset from the flooded start's convergence instant, so both arms
// see each change with their boot behind them.
type igpProgram struct {
	cut         []topo.Link // failed before Start
	loss        bool        // LossRate 0.3 from the convergence instant on
	changes     []igpChange
	checkpoints []time.Duration
	end         time.Duration
}

// recordLine is one line of an arm's record and the instant it was noted.
type recordLine struct {
	at   time.Duration
	line string
}

// igpArm is one domain under a program and what it showed.
type igpArm struct {
	d       *Domain
	record  []recordLine
	boot    int                       // record lines noted by conv
	base    map[topo.NodeID][2]uint64 // SPF runs and packets sent at the convergence instant
	errSeen int                       // Domain.Errors already noted
	scratch []byte
}

// newIGPArm builds a domain on tp, hooks its FIB deltas and adjacency
// changes into the record, fails the cut links and brings it up with
// start.
func newIGPArm(tp *topo.Topology, cut []topo.Link, start func(*Domain)) *igpArm {
	a := &igpArm{d: NewDomain(tp, event.NewScheduler(), Config{})}
	for _, l := range cut {
		if err := a.d.SetLinkState(l.From, l.To, false); err != nil {
			panic(err)
		}
	}
	a.d.OnFIBDelta = func(n topo.NodeID, _ *fib.Table, diff *fib.Diff) {
		a.note("fib %s: %s", tp.Name(n), diff)
	}
	a.d.OnAdjacencyChange = func(l topo.Link, up bool) {
		a.note("adjacency %d up=%v", l.ID, up)
	}
	start(a.d)
	return a
}

func (a *igpArm) note(format string, args ...any) {
	a.record = append(a.record, recordLine{a.d.sched.Now(), fmt.Sprintf(format, args...)})
}

// run brings the arm to conv, the flooded start's convergence instant,
// and plays p from there: changes and checkpoints are scheduled at conv,
// when both arms hold the same pending events (the tickers), and a last
// checkpoint closes the run.
func (a *igpArm) run(p igpProgram, conv time.Duration) {
	d := a.d
	d.sched.RunUntil(conv)
	a.boot = len(a.record)
	if p.loss {
		d.LossRate = 0.3
	}
	a.base = make(map[topo.NodeID][2]uint64, len(d.routers))
	for n, r := range d.routers {
		a.base[n] = [2]uint64{r.spfRuns, r.PacketsSent}
	}
	a.errSeen = len(d.Errors)
	for _, c := range p.changes {
		d.sched.At(conv+c.at, func() {
			if err := c.do(d); err != nil {
				a.note("%s: %v", c.what, err)
			}
		})
	}
	for _, at := range p.checkpoints {
		d.sched.At(conv+at, a.checkpoint)
	}
	d.sched.RunUntil(conv + p.end)
	a.checkpoint()
}

// checkpoint notes, per router in node order, a digest of its LSDB (key,
// seq, age and encoded contents of every instance), of its FIB, and its
// SPF runs and packets sent since the convergence instant; then the
// protocol errors raised since the last checkpoint and whether the
// domain is converged.
func (a *igpArm) checkpoint() {
	d := a.d
	for _, n := range d.topo.Nodes() {
		r := d.routers[n.ID]
		if r == nil {
			continue
		}
		b := a.base[n.ID]
		a.note("checkpoint %s: lsdb %d %016x fib %d %x spf %d sent %d", n.Name, r.db.Len(), a.lsdbDigest(r),
			r.fib.Len(), a.fibDigest(r), r.spfRuns-b[0], r.PacketsSent-b[1])
	}
	a.note("checkpoint: errors %q converged %v", d.Errors[a.errSeen:], d.Converged())
	a.errSeen = len(d.Errors)
}

// lsdbDigest sums a hash of every instance r stores: of its encoding,
// which holds the key, seq, age and contents. The sum is order-free, so
// the map is read as it lies.
func (a *igpArm) lsdbDigest(r *Router) uint64 {
	var sum uint64
	for _, e := range r.db.entries {
		a.scratch = e.lsa.AppendEncode(a.scratch[:0])
		h := fnv.New64a()
		h.Write(a.scratch)
		sum += h.Sum64()
	}
	return sum
}

// fibDigest hashes every route of r's FIB: prefix, distance, locality
// and next hops.
func (a *igpArm) fibDigest(r *Router) []byte {
	h := sha256.New()
	for _, rt := range r.fib.Routes() {
		buf, _ := rt.Prefix.AppendBinary(a.scratch[:0])
		buf = binary.BigEndian.AppendUint64(buf, uint64(rt.Distance))
		if rt.Local {
			buf = append(buf, 1)
		}
		for _, nh := range rt.NextHops {
			buf = binary.BigEndian.AppendUint32(buf, uint32(nh.Node))
			buf = binary.BigEndian.AppendUint32(buf, uint32(nh.Link))
			buf = binary.BigEndian.AppendUint32(buf, uint32(nh.Weight))
		}
		a.scratch = append(buf, 0xff)
		h.Write(a.scratch)
	}
	return h.Sum(nil)[:8]
}

// lines returns the record, without the lines noted by the convergence
// instant when skipBoot is set.
func (a *igpArm) lines(skipBoot bool) []string {
	rec := a.record
	if skipBoot {
		rec = rec[a.boot:]
	}
	out := make([]string, len(rec))
	for i, l := range rec {
		out[i] = fmt.Sprintf("%v %s", l.at, l.line)
	}
	return out
}

// requireQuietStart holds a freshly started synced domain to what Start
// promises before any event runs: nothing sent, nothing in flight,
// nothing listed for retransmission, and, unless links were cut before
// it, every router holding the same database.
func requireQuietStart(t testing.TB, label string, d *Domain, cut bool) {
	t.Helper()
	if s := d.Stats(); s.PacketsSent != 0 || d.inflight != 0 {
		t.Fatalf("%s: Start sent %d packets, %d in flight", label, s.PacketsSent, d.inflight)
	}
	for _, r := range d.routers {
		for _, n := range r.nbrList {
			if n.listed != 0 || n.rxmt.Len() != 0 || n.rxmtTimer.Scheduled() {
				t.Fatalf("%s: router %d lists %d updates towards %d after Start", label, r.id, n.listed, n.id)
			}
		}
	}
	if err := d.ConvergedIdentically(); err != nil && !cut {
		t.Fatalf("%s: after Start: %v", label, err)
	}
}

// compareStarts draws a program, runs the flooded start on a copy of tp
// to convergence, runs the program on that arm and on a synced start on
// another copy, and fails on the first line their records differ. It
// reports whether the flood outlasted spfDelay (or links were cut before
// Start, whose dead intervals re-originate), and returns the events each
// arm fired.
func compareStarts(t testing.TB, label string, tp *topo.Topology, draw func() igpProgram) (slow bool, synced, flooded uint64) {
	t.Helper()
	p := draw()
	fl := newIGPArm(tp.Clone(), p.cut, refFloodedStart)
	conv, err := fl.d.RunUntilConverged(time.Minute)
	if err != nil {
		t.Fatalf("%s: flooded start: %v", label, err)
	}
	// Every router's first SPF run is due at spfDelay; an LSA installed
	// at or after it schedules a second one.
	for _, r := range fl.d.routers {
		slow = slow || r.spfRuns > 1
	}
	sy := newIGPArm(tp.Clone(), p.cut, (*Domain).Start)
	requireQuietStart(t, label, sy.d, len(p.cut) > 0)
	fl.run(p, conv)
	sy.run(p, conv)
	got, want := sy.lines(slow), fl.lines(slow)
	for i := range max(len(got), len(want)) {
		line := func(r []string) string {
			if i < len(r) {
				return r[i]
			}
			return "(end of record)"
		}
		if line(got) != line(want) {
			t.Fatalf("%s: the synced start departs from the flooded start at record line %d (boot skipped: %v; flood converged at %v)\n synced: %s\nflooded: %s\nprogram: %s",
				label, i, slow, conv, line(got), line(want), describe(p))
		}
	}
	return slow, sy.d.sched.Ran(), fl.d.sched.Ran()
}

func describe(p igpProgram) string {
	s := fmt.Sprintf("cut=%v loss=%v end=%v checkpoints=%v changes:", p.cut, p.loss, p.end, p.checkpoints)
	for _, c := range p.changes {
		s += fmt.Sprintf(" [%v %s]", c.at, c.what)
	}
	return s
}

// linkDelay is the delay a packet on l takes (Domain.deliver's rule).
func linkDelay(l topo.Link) time.Duration {
	if l.Delay <= 0 {
		return time.Millisecond
	}
	return l.Delay
}

// drawProgram draws a program over tp's routers, links and prefixes from
// pick, which returns a value in [0, n): weight flips, link failures and
// heals, lie injections and withdrawals, some exactly when the previous
// change's flood reaches a neighbor or at the previous change's instant,
// and checkpoints at arbitrary offsets and at flood-arrival instants.
func drawProgram(tp *topo.Topology, pick func(n int) int) igpProgram {
	links := routerLinks(tp)
	var routers []topo.NodeID
	for _, n := range tp.Nodes() {
		if !n.Host {
			routers = append(routers, n.ID)
		}
	}
	prefixes := tp.Prefixes()
	// outLink draws a link from router x to another router.
	outLink := func(x topo.NodeID) (topo.Link, bool) {
		var out []topo.Link
		for _, id := range tp.OutLinks(x) {
			if l := tp.Link(id); !tp.Node(l.To).Host {
				out = append(out, l)
			}
		}
		if len(out) == 0 {
			return topo.Link{}, false
		}
		return out[pick(len(out))], true
	}

	p := igpProgram{loss: pick(2) == 0, checkpoints: []time.Duration{0}}
	if pick(4) == 0 && len(links) > 0 {
		for range 1 + pick(2) {
			p.cut = append(p.cut, links[pick(len(links))])
		}
	}
	type lie struct {
		lsa *LSA
		at  topo.NodeID
	}
	var (
		at      time.Duration
		arrival time.Duration = -1 // when the last change's flood reaches a neighbor
		down                  = slices.Clone(p.cut)
		lies    []lie
		lsid    uint32 = 1
	)
	for range 3 + pick(8) {
		switch mode := pick(5); {
		case mode == 0 && arrival >= 0:
			at = arrival
		case mode == 1:
			// the previous change's instant
		default:
			at += time.Duration(pick(2500))*time.Millisecond + time.Duration(pick(1000))*time.Microsecond
		}
		if pick(4) == 0 {
			p.checkpoints = append(p.checkpoints, at)
			continue
		}
		arrival = -1
		switch op := pick(5); {
		case op == 0 && len(links) > 0:
			l := links[pick(len(links))]
			w := int64(1 + pick(9))
			p.changes = append(p.changes, igpChange{at, fmt.Sprintf("weight %d %d", l.ID, w), func(d *Domain) error {
				return d.SetLinkWeight(l.From, l.To, w)
			}})
			arrival = at + linkDelay(l)
		case op == 1 && len(links) > 0 && len(down) < 2:
			l := links[pick(len(links))]
			down = append(down, l)
			p.changes = append(p.changes, igpChange{at, fmt.Sprintf("fail %d", l.ID), func(d *Domain) error {
				return d.SetLinkState(l.From, l.To, false)
			}})
		case op == 2 && len(down) > 0:
			i := pick(len(down))
			l := down[i]
			down = append(down[:i], down[i+1:]...)
			p.changes = append(p.changes, igpChange{at, fmt.Sprintf("heal %d", l.ID), func(d *Domain) error {
				return d.SetLinkState(l.From, l.To, true)
			}})
		case op == 3 && len(lies) > 0:
			i := pick(len(lies))
			lie := lies[i]
			lies = append(lies[:i], lies[i+1:]...)
			w := lie.lsa.Clone()
			w.Header.Seq++
			w.Header.Age = MaxAgeSeconds
			p.changes = append(p.changes, igpChange{at, fmt.Sprintf("withdraw %d at %d", w.Header.LSID, lie.at), func(d *Domain) error {
				return d.Router(lie.at).OriginateForeign(w.Clone())
			}})
			if l, ok := outLink(lie.at); ok {
				arrival = at + linkDelay(l)
			}
		default:
			attach := routers[pick(len(routers))]
			via, ok := outLink(attach)
			if !ok {
				continue
			}
			pref := prefixes[pick(len(prefixes))].Prefix
			lsa := &LSA{
				Header:     Header{Type: TypeFake, AdvRouter: ControllerIDBase, LSID: lsid, Seq: 1},
				Prefix:     pref,
				Metric:     uint32(pick(4)),
				AttachedTo: NodeRouterID(attach),
				AttachCost: uint32(pick(3)),
				ForwardVia: NodeRouterID(via.To),
			}
			lsid++
			inj := routers[pick(len(routers))]
			lies = append(lies, lie{lsa: lsa, at: inj})
			p.changes = append(p.changes, igpChange{at, fmt.Sprintf("lie %d for %v at %d via %d, injected at %d", lsa.Header.LSID, pref, attach, via.To, inj), func(d *Domain) error {
				return d.Router(inj).OriginateForeign(lsa.Clone())
			}})
			if l, ok := outLink(inj); ok {
				arrival = at + linkDelay(l)
			}
		}
		if arrival >= 0 && pick(3) == 0 {
			p.checkpoints = append(p.checkpoints, arrival)
		}
	}
	// Time for a failure to be detected (the dead interval and a hello
	// tick) and for its flood, under loss its retransmissions, to settle.
	p.end = at + deadInterval + 3*helloInterval
	return p
}

// startFamilies are the topology families the synced start is held to
// the flooded start over, each drawn from a seeded rng and its seed.
var startFamilies = []struct {
	name string
	tp   func(rng *rand.Rand, seed int64) *topo.Topology
}{
	{"fig1", func(rng *rand.Rand, _ int64) *topo.Topology {
		return topo.Fig1(topo.Fig1Opts{Delay: time.Duration(rng.Intn(5)) * time.Millisecond})
	}},
	{"abilene", func(rng *rand.Rand, _ int64) *topo.Topology {
		return topo.Abilene(10e6, time.Duration(1+rng.Intn(5))*time.Millisecond)
	}},
	{"ring", func(rng *rand.Rand, seed int64) *topo.Topology {
		return topo.Ring(topo.RingOpts{N: 5 + rng.Intn(20), Capacity: 10e6, MaxWeight: 4, Chords: rng.Intn(3), Seed: seed})
	}},
	{"grid", func(rng *rand.Rand, _ int64) *topo.Topology { return topo.Grid(3+rng.Intn(2), 3+rng.Intn(3), 10e6) }},
	{"fattree4", func(_ *rand.Rand, seed int64) *topo.Topology {
		return topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: seed})
	}},
	{"fattree8", func(_ *rand.Rand, seed int64) *topo.Topology {
		return topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: 10e6, MaxWeight: 3, Seed: seed})
	}},
	{"random", func(rng *rand.Rand, seed int64) *topo.Topology {
		return topo.RandomConnected(topo.RandomOpts{Nodes: 8 + rng.Intn(8), Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: 10e6, Seed: seed})
	}},
	{"waxman", func(rng *rand.Rand, seed int64) *topo.Topology {
		return topo.Waxman(topo.WaxmanOpts{Nodes: 8 + rng.Intn(10), Capacity: 10e6, MaxWeight: 5, Seed: seed})
	}},
}

// TestSyncedStartMatchesFloodedStart: over Fig. 1, Abilene, ring, grid,
// fat-tree k=4 and k=8, random and Waxman topologies, 20 seeds each, with
// link delays that end the boot flood within spfDelay and delays that
// make it outlast spfDelay, random programs of weight flips, link
// failures and heals, and lie injections and withdrawals — some exactly at
// a flood-arrival instant, half of them under 30 % loss set once the
// flooded start converged — run alike on the synced and the flooded
// start.
func TestSyncedStartMatchesFloodedStart(t *testing.T) {
	var runs, slow int
	var synced, flooded uint64
	for _, f := range startFamilies {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tp := f.tp(rng, seed)
			s, sy, fl := compareStarts(t, fmt.Sprintf("%s seed %d", f.name, seed), tp, func() igpProgram {
				return drawProgram(tp, rng.Intn)
			})
			runs++
			if s {
				slow++
			}
			synced, flooded = synced+sy, flooded+fl
		}
	}
	t.Logf("%d runs, %d compared from the flood's convergence (the flood outlasted spfDelay, or links were cut before Start); events: synced %d, flooded %d",
		runs, slow, synced, flooded)
	if slow == 0 || slow == runs {
		t.Errorf("%d of %d runs compared from the flood's convergence: want both kinds", slow, runs)
	}
	if synced >= flooded {
		t.Errorf("the synced starts fired %d events, the flooded %d: want fewer", synced, flooded)
	}
}

// FuzzSyncedStart holds the synced start to the flooded one on arbitrary
// programs over topologies of two to eight routers with link delays of
// 0 to 3 ms: the input draws the topology (links, weights, delays and an
// attached prefix) and the program (changes, their instants — some at a
// flood-arrival instant — and checkpoints).
func FuzzSyncedStart(f *testing.F) {
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{6, 3, 2, 1, 4, 0, 2, 3, 1, 7, 0, 4, 2, 1, 0, 0, 3, 9, 1, 2, 0, 4, 1, 3, 2})
	f.Add([]byte{4, 2, 3, 3, 3, 1, 5, 2, 0, 8, 1, 0, 0, 2, 4, 4, 1, 1, 7, 3, 0, 2, 2, 0, 1, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		n := 2 + pick(7)
		tp := topo.New()
		for i := range n {
			tp.AddNode(fmt.Sprintf("r%d", i))
		}
		link := func(a, b topo.NodeID) {
			if _, dup := tp.FindLink(a, b); a != b && !dup {
				tp.AddLink(a, b, int64(1+pick(5)), topo.LinkOpts{Capacity: 1e6, Delay: time.Duration(pick(4)) * time.Millisecond})
			}
		}
		for i := 1; i < n; i++ {
			link(topo.NodeID(i), topo.NodeID(pick(i)))
		}
		for range pick(n) {
			link(topo.NodeID(pick(n)), topo.NodeID(pick(n)))
		}
		tp.AddPrefix(netip.MustParsePrefix("10.9.0.0/16"), "p",
			topo.Attachment{Node: topo.NodeID(pick(n))}, topo.Attachment{Node: topo.NodeID(pick(n)), Cost: int64(pick(3))})
		compareStarts(t, "fuzz", tp, func() igpProgram { return drawProgram(tp, pick) })
	})
}
