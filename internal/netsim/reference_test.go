package netsim

import (
	"fmt"

	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/topo"
)

// This file keeps the data plane's readings as they were computed before
// the network kept them between changes: the allocation readings summed
// afresh on every call (a sort of the aggregates and a new map), and the
// throughput series recorded for every link at every tick. readings_test.go
// holds the kept readings and the series on request to them.

// refLinkRates is LinkRates as one call computed it: a fresh map, summing
// allocated aggregate rates in aggregate-id order.
func (n *Network) refLinkRates() map[topo.LinkID]float64 {
	out := make(map[topo.LinkID]float64)
	n.eachByID(func(a *Aggregate) {
		if a.rate <= 0 {
			return
		}
		for _, lid := range a.links {
			out[lid] += a.rate * float64(a.weight)
		}
	})
	return out
}

// refMaxUtilisation is MaxUtilisation as one call computed it, over
// refLinkRates' map.
func (n *Network) refMaxUtilisation() float64 {
	rates := n.refLinkRates()
	max := 0.0
	for id, r := range rates {
		l := n.topo.Link(id)
		if l.Capacity <= 0 {
			continue
		}
		if u := r / l.Capacity; u > max {
			max = u
		}
	}
	return max
}

// refTotalThroughput is TotalThroughput as one call computed it.
func (n *Network) refTotalThroughput() float64 {
	sum := 0.0
	n.eachByID(func(a *Aggregate) { sum += a.rate * float64(a.weight) })
	return sum
}

// refRecorder is the series recording as every network ran it before
// series were kept on request: a series for every link from creation on,
// one point per link at every tick.
type refRecorder struct {
	n       *Network
	series  map[topo.LinkID]*metrics.Series
	lastOct map[topo.LinkID]uint64
}

// newRefRecorder starts recording every link of a network just created:
// its ticker, registered after the network's, fires right after the
// network's sample tick at every instant, so it reads the same counters.
func newRefRecorder(n *Network) *refRecorder {
	rec := &refRecorder{n: n, series: make(map[topo.LinkID]*metrics.Series), lastOct: make(map[topo.LinkID]uint64)}
	for _, l := range n.topo.Links() {
		rec.series[l.ID] = &metrics.Series{
			Name: fmt.Sprintf("%s-%s", n.topo.Name(l.From), n.topo.Name(l.To)),
		}
	}
	n.sched.NewTicker(n.sampleEvery, rec.sample)
	return rec
}

func (rec *refRecorder) sample() {
	n := rec.n
	n.advance()
	now := n.sched.Now()
	for id, s := range rec.series {
		cur := n.counters[id].Value()
		rate := metrics.Rate(rec.lastOct[id], cur, n.sampleEvery)
		rec.lastOct[id] = cur
		s.Add(now, rate)
	}
}
