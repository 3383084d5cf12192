package bfd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// linkChange fails or heals both directions of a link at an instant.
type linkChange struct {
	at   time.Duration
	link topo.LinkID
	up   bool
}

// program is what the oracle runs both engines through: link changes and
// checkpoints, all scheduled before Start (so each fires before any hello
// due at its instant), then a run to end.
type program struct {
	changes     []linkChange
	checkpoints []time.Duration
	end         time.Duration
}

// sessionView is what a checkpoint reads of either engine's session.
type sessionView interface {
	States() (State, State)
	Up() bool
	Suppressed() bool
}

// runProgram runs p on a fresh engine — the quiet one or the reference —
// and returns its record: every OnDown/OnUp (instant and link), and at
// each checkpoint and at the end, every session's states and verdicts
// and the engine's Stats. It also returns the events the run fired.
func runProgram(tp *topo.Topology, seed int64, p program, quiet bool) ([]string, uint64) {
	sched := event.NewScheduler()
	var record []string
	note := func(what string) func(topo.Link) {
		return func(l topo.Link) { record = append(record, fmt.Sprintf("%v %s %d", sched.Now(), what, l.ID)) }
	}
	var (
		setLink func(topo.LinkID, bool)
		start   func()
		stats   func() Stats
		session func(topo.LinkID) (sessionView, bool)
	)
	if quiet {
		e := New(tp, sched, Config{Seed: seed})
		e.OnDown, e.OnUp = note("down"), note("up")
		setLink, start, stats = e.SetLinkState, e.Start, e.Stats
		session = func(id topo.LinkID) (sessionView, bool) { s, ok := e.Session(id); return s, ok }
	} else {
		e := newRefEngine(tp, sched, Config{Seed: seed})
		e.OnDown, e.OnUp = note("down"), note("up")
		down := make(map[topo.LinkID]bool)
		e.Blocked = func(id topo.LinkID) bool { return down[id] }
		setLink = func(id topo.LinkID, up bool) {
			down[id] = !up
			if r := tp.Link(id).Reverse; r != topo.NoLink {
				down[r] = !up
			}
		}
		start, stats = e.Start, e.Stats
		session = func(id topo.LinkID) (sessionView, bool) { s, ok := e.Session(id); return s, ok }
	}
	snapshot := func() {
		line := fmt.Sprintf("%v %+v", sched.Now(), stats())
		for _, l := range tp.Links() {
			if s, ok := session(l.ID); ok && l.ID < l.Reverse {
				a, b := s.States()
				line += fmt.Sprintf(" %d:%v/%v,%v,%v", l.ID, a, b, s.Up(), s.Suppressed())
			}
		}
		record = append(record, line)
	}
	for _, c := range p.changes {
		sched.At(c.at, func() { setLink(c.link, c.up) })
	}
	for _, at := range p.checkpoints {
		sched.At(at, snapshot)
	}
	start()
	sched.RunUntil(p.end)
	snapshot()
	return record, sched.Ran()
}

// sessionLinks returns the canonical half of every link a session covers.
func sessionLinks(tp *topo.Topology) []topo.Link {
	var out []topo.Link
	for _, l := range tp.Links() {
		if l.Reverse != topo.NoLink && l.ID < l.Reverse && !tp.Node(l.From).Host && !tp.Node(l.To).Host {
			out = append(out, l)
		}
	}
	return out
}

// helloInstants returns the first n instants at which the endpoint of
// canon's session that transmits on out sends a hello, in an engine
// seeded seed and started at 0, and out's delay: the k-th hello arrives
// at its send instant plus that delay. The hellos go out on schedule
// whatever the link does, so these hold for any program.
func helloInstants(tp *topo.Topology, seed int64, canon topo.Link, out topo.LinkID, n int) ([]time.Duration, time.Duration) {
	e := New(tp, event.NewScheduler(), Config{Seed: seed})
	e.Start()
	s, _ := e.Session(canon.ID)
	ep := &s.a
	if out != canon.ID {
		ep = &s.b
	}
	at := make([]time.Duration, n)
	at[0] = ep.nextTx
	for k := 1; k < n; k++ {
		at[k] = at[k-1] + ep.interval()
	}
	return at, ep.delay
}

// randomProgram draws a program over tp's sessions: a few fails and heals
// at arbitrary instants, one failure exactly at a hello's send instant,
// one exactly at a hello's arrival instant, and checkpoints at arbitrary
// instants and exactly at a send and an arrival instant.
func randomProgram(rng *rand.Rand, tp *topo.Topology, seed int64) program {
	const end = 6 * time.Second
	links := sessionLinks(tp)
	p := program{end: end}
	instant := func() time.Duration { return time.Duration(rng.Int63n(int64(end))) }
	for range 2 + rng.Intn(6) {
		p.changes = append(p.changes, linkChange{at: instant(), link: links[rng.Intn(len(links))].ID, up: rng.Intn(2) == 0})
	}
	for range 3 + rng.Intn(4) {
		p.checkpoints = append(p.checkpoints, instant())
	}
	hello := func(arrival bool) (topo.LinkID, time.Duration) {
		l := links[rng.Intn(len(links))]
		out := l.ID
		if rng.Intn(2) == 0 {
			out = l.Reverse
		}
		sends, delay := helloInstants(tp, seed, l, out, 120)
		at := sends[10+rng.Intn(100)]
		if arrival {
			at += delay
		}
		return l.ID, at
	}
	for _, arrival := range []bool{false, true} {
		l, at := hello(arrival)
		p.changes = append(p.changes, linkChange{at: at, link: l})
		_, at = hello(arrival)
		p.checkpoints = append(p.checkpoints, at)
	}
	return p
}

// delayTopo is a random connected topology of n routers whose links
// draw their delays from none up to four tx intervals, so some sessions
// have several hellos in flight per direction.
func delayTopo(rng *rand.Rand, n int) *topo.Topology {
	delays := []time.Duration{0, time.Millisecond, 7 * time.Millisecond, 30 * time.Millisecond,
		45 * time.Millisecond, 80 * time.Millisecond, 200 * time.Millisecond}
	tp := topo.New()
	for i := range n {
		tp.AddNode(fmt.Sprintf("r%d", i))
	}
	link := func(a, b topo.NodeID) {
		if _, dup := tp.FindLink(a, b); a != b && !dup {
			tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 1e6, Delay: delays[rng.Intn(len(delays))]})
		}
	}
	for i := 1; i < n; i++ {
		link(topo.NodeID(i), topo.NodeID(rng.Intn(i)))
	}
	for range rng.Intn(n) {
		link(topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n)))
	}
	return tp
}

// requireSameRecord runs p on both engines and fails on the first line
// their records differ. It returns both runs' event counts.
func requireSameRecord(t *testing.T, name string, tp *topo.Topology, seed int64, p program) (quiet, ref uint64) {
	t.Helper()
	got, quiet := runProgram(tp, seed, p, true)
	want, ref := runProgram(tp, seed, p, false)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		line := func(r []string) string {
			if i < len(r) {
				return r[i]
			}
			return "(end of record)"
		}
		t.Fatalf("%s seed %d: the quiet engine departs from the reference at record line %d\n quiet: %s\n   ref: %s\nprogram: %+v",
			name, seed, i, line(got), line(want), p)
	}
	return quiet, ref
}

// TestQuietMatchesReference: over pair, long-delay pair, Fig. 1, Abilene,
// fat-tree k=4 and random topologies, 20 seeds each, random fail/heal
// programs with a failure exactly at a hello's send instant and another
// exactly at an arrival instant, the quiet engine notifies what the
// reference engine notifies, when it does, and reads the same at every
// checkpoint — on a fraction of the events.
func TestQuietMatchesReference(t *testing.T) {
	families := []struct {
		name string
		tp   func(rng *rand.Rand) *topo.Topology
	}{
		{"pair", func(*rand.Rand) *topo.Topology { return pairTopo(t) }},
		{"slow-pair", func(*rand.Rand) *topo.Topology { return slowPairTopo(t) }},
		{"fig1", func(*rand.Rand) *topo.Topology { return topo.Fig1(topo.Fig1Opts{Delay: 2 * time.Millisecond}) }},
		{"abilene", func(*rand.Rand) *topo.Topology { return topo.Abilene(10e6, 5*time.Millisecond) }},
		{"fattree", func(*rand.Rand) *topo.Topology { return topo.FatTree(topo.FatTreeOpts{K: 4}) }},
		{"random", func(rng *rand.Rand) *topo.Topology { return delayTopo(rng, 3+rng.Intn(6)) }},
	}
	var quiet, ref uint64
	for _, f := range families {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tp := f.tp(rng)
			q, r := requireSameRecord(t, f.name, tp, seed, randomProgram(rng, tp, seed))
			quiet, ref = quiet+q, ref+r
		}
	}
	if quiet*4 > ref {
		t.Errorf("the quiet engine fired %d events, the reference %d: want under a quarter", quiet, ref)
	}
	t.Logf("events: quiet %d, reference %d", quiet, ref)
}

// FuzzQuietBFD holds the quiet engine to the reference on arbitrary
// fail/heal programs over topologies of at most six routers: the input
// draws the topology (links and their delays), the engine seed, the
// changes — some of them exactly at a hello's send or arrival instant —
// and the checkpoints.
func FuzzQuietBFD(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 40, 1, 0, 120, 0})
	f.Add([]byte{4, 3, 2, 6, 1, 5, 0, 2, 9, 200, 17, 1, 3, 66, 0, 1, 90, 7, 4, 1, 1, 250, 3})
	f.Add([]byte{2, 1, 6, 6, 6, 6, 6, 11, 5, 9, 1, 130, 2, 0, 2, 140, 1, 3, 3, 7, 0, 0, 8, 1, 99, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rng := rand.New(rand.NewSource(int64(next())))
		tp := delayTopo(rng, 2+next()%5)
		seed := int64(next())
		links := sessionLinks(tp)
		const end = 4 * time.Second
		p := program{end: end}
		for range next() % 12 {
			l := links[next()%len(links)]
			var at time.Duration
			switch mode := next() % 4; mode {
			case 0, 1: // exactly at a hello's send (0) or arrival (1) instant
				out := l.ID
				if next()%2 == 1 {
					out = l.Reverse
				}
				sends, delay := helloInstants(tp, seed, l, out, 90)
				at = sends[next()%len(sends)]
				if mode == 1 {
					at += delay
				}
			default:
				at = time.Duration(next())*15*time.Millisecond + time.Duration(next())*61*time.Microsecond
			}
			if next()%3 == 0 {
				p.checkpoints = append(p.checkpoints, at)
				continue
			}
			p.changes = append(p.changes, linkChange{at: at, link: l.ID, up: next()%2 == 0})
		}
		requireSameRecord(t, "fuzz", tp, seed, p)
	})
}
