package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/topo"
)

// This file holds the readings the network keeps between changes to the
// per-call computations in reference_test.go: LinkRates, MaxUtilisation
// and TotalThroughput must equal them bit for bit after every operation
// of a random program, and a series asked for must hold exactly the
// points the all-links recording held for that link.

// readingsDiff compares the kept readings with the per-call reference and
// describes the first difference ("" when there is none).
func readingsDiff(n *Network) string {
	got, want := n.LinkRates(), n.refLinkRates()
	if len(got) != n.topo.NumLinks() {
		return fmt.Sprintf("LinkRates has %d entries for %d links", len(got), n.topo.NumLinks())
	}
	for id, r := range got {
		if w := want[topo.LinkID(id)]; math.Float64bits(r) != math.Float64bits(w) {
			return fmt.Sprintf("LinkRates[%d] = %v, reference %v", id, r, w)
		}
	}
	if g, w := n.MaxUtilisation(), n.refMaxUtilisation(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Sprintf("MaxUtilisation = %v, reference %v", g, w)
	}
	if g, w := n.TotalThroughput(), n.refTotalThroughput(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Sprintf("TotalThroughput = %v, reference %v", g, w)
	}
	return ""
}

// readingsCoverage counts what the comparisons saw, for non-vacuity.
type readingsCoverage struct {
	checks, resummed, hot, capChanges int
}

// runReadings plays a classify program (joins and leaves of capped and
// greedy flows, FIB diffs and whole-table installs that re-route, link
// failures and heals, recomputes) with cap changes mixed in, and compares
// the readings after every operation: after the ones that leave the
// recompute pending as well as after the recompute itself.
func runReadings(t *testing.T, data []byte, cov *readingsCoverage) {
	r := &classifyReader{data: data}
	g := newClassifyRig(t, r, &classifyCoverage{})
	check := func(step int) {
		cov.checks++
		if g.net.ratesStale {
			cov.resummed++
		}
		if d := readingsDiff(g.net); d != "" {
			t.Fatalf("step %d: %s", step, d)
		}
		if g.net.maxUtil > 0 {
			cov.hot++
		}
	}
	check(-1)
	for step := 0; r.pos < len(r.data); step++ {
		if r.intn(6) == 0 {
			id := g.live[r.intn(len(g.live))]
			g.net.SetFlowMaxRate(id, []float64{0, 2e5, 7e5}[r.intn(3)])
			cov.capChanges++
		} else {
			g.step()
		}
		check(step)
	}
}

// TestReadingsMatchReference runs random programs over the classify zoo.
func TestReadingsMatchReference(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	cov := &readingsCoverage{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		data := make([]byte, 500)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0] = byte(seed) // every topology, in turn
		runReadings(t, data, cov)
	}
	// Non-vacuity: the readings were re-summed, stayed kept between
	// changes, saw load, and cap changes ran.
	if cov.resummed == 0 || cov.resummed == cov.checks || cov.hot == 0 || cov.capChanges == 0 {
		t.Fatalf("vacuous run: %+v", *cov)
	}
	t.Logf("%+v", *cov)
}

// FuzzReadings runs arbitrary programs through runReadings.
func FuzzReadings(f *testing.F) {
	f.Add([]byte{6, 0, 1, 2, 3, 0, 1, 5, 0, 9, 5, 1, 9, 3, 2, 1, 9, 4, 3, 0, 9, 6, 9})
	f.Add([]byte{2, 1, 7, 4, 1, 1, 2, 3, 9, 1, 5, 9, 3, 0, 8, 1, 4, 9, 2, 8, 1, 9})
	f.Add([]byte{13, 3, 5, 0, 2, 6, 7, 9, 0, 1, 9, 5, 2, 9, 0, 4, 2, 9, 0, 8, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		runReadings(t, data, &readingsCoverage{})
	})
}

// seriesCoverage counts what the series comparisons saw.
type seriesCoverage struct {
	early, beforeTick, atTick, betweenTicks, points, busy int
}

// firstPoint is the instant of the first point a series asked for at the
// given time holds: the first tick when no tick has run yet, else the
// tick after the next one (the next tick records the counter).
func firstPoint(at, every time.Duration) time.Duration {
	if at < every {
		return every
	}
	return (at/every + 2) * every
}

// runSeries plays a classify program with time passing between the
// operations. Even-numbered links are asked for before the run and must
// hold the reference recording's series exactly; odd-numbered ones are
// asked for at instants the program picks (before the first tick, at a
// tick instant just after it ran, between ticks) and must hold exactly
// the reference points from firstPoint on.
func runSeries(t *testing.T, data []byte, cov *seriesCoverage) {
	r := &classifyReader{data: data}
	g := newClassifyRig(t, r, &classifyCoverage{})
	n := g.net
	ref := newRefRecorder(n)
	every := n.sampleEvery
	type ask struct {
		link topo.LinkID
		at   time.Duration
		s    *metrics.Series
	}
	var asks []ask
	var late []topo.LinkID
	for id := range topo.LinkID(n.topo.NumLinks()) {
		if id%2 == 0 {
			asks = append(asks, ask{id, 0, n.Series(id)})
		} else {
			late = append(late, id)
		}
	}
	for r.pos < len(r.data) {
		g.step()
		g.now += time.Duration(r.intn(8))*100*time.Millisecond + time.Duration(r.intn(2))*7*time.Millisecond
		g.sched.RunUntil(g.now)
		if len(late) > 0 && r.intn(8) == 0 {
			if r.intn(2) == 0 { // right after the next tick ran
				g.now = (g.now/every + 1) * every
				g.sched.RunUntil(g.now)
			}
			asks = append(asks, ask{late[0], g.now, n.Series(late[0])})
			late = late[1:]
		}
	}
	g.now += 3 * every
	g.sched.RunUntil(g.now)
	for _, a := range asks {
		want := ref.series[a.link]
		from := firstPoint(a.at, every)
		i, _ := slices.BinarySearchFunc(want.Points, from, func(p metrics.Point, t time.Duration) int { return int(p.T - t) })
		if a.s.Name != want.Name || !slices.EqualFunc(a.s.Points, want.Points[i:], func(x, y metrics.Point) bool {
			return x.T == y.T && math.Float64bits(x.V) == math.Float64bits(y.V)
		}) {
			t.Fatalf("link %d asked for at %v: series %q %v;\nreference %q from %v: %v",
				a.link, a.at, a.s.Name, a.s.Points, want.Name, from, want.Points[i:])
		}
		if len(a.s.Points) == 0 {
			t.Fatalf("link %d asked for at %v: no points by %v", a.link, a.at, g.now)
		}
		switch {
		case a.at == 0:
			cov.early++
		case a.at < every:
			cov.beforeTick++
		case a.at%every == 0:
			cov.atTick++
		default:
			cov.betweenTicks++
		}
		cov.points += len(a.s.Points)
		if a.s.Max() > 0 {
			cov.busy++
		}
	}
	if s := n.Series(topo.LinkID(n.topo.NumLinks())); s != nil {
		t.Fatalf("Series of a link the topology lacks = %v, want nil", s)
	}
}

// TestSeriesOnRequest runs random programs and checks every series asked
// for against the all-links recording.
func TestSeriesOnRequest(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	cov := &seriesCoverage{}
	for seed := int64(0); seed < int64(seeds); seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(100 + seed)).Read(data)
		data[0] = byte(seed)
		runSeries(t, data, cov)
	}
	if cov.early == 0 || cov.beforeTick == 0 || cov.atTick == 0 || cov.betweenTicks == 0 || cov.busy == 0 {
		t.Fatalf("vacuous run: %+v", *cov)
	}
	t.Logf("%+v", *cov)
}
