package monitor

// The per-link poll loop as it stood before Client.GetCounters — one GET
// round trip per watched link, issued between the alarm callbacks — kept
// verbatim (bar the state lookup, now by position) as the oracle of
// TestBatchedPollMatchesPerLinkPoll.

import (
	"fmt"

	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
)

func refPoll(p *Poller) {
	now := p.sched.Now()
	report := Report{At: now}
	for i, wl := range p.links {
		st := &p.state[i]
		count, err := p.client.GetCounter(wl.OID)
		if err != nil {
			p.PollFailures.Add(1)
			if len(p.Errors) < maxPollErrors {
				p.Errors = append(p.Errors, fmt.Errorf("monitor: poll %s: %w", wl.Name, err))
			}
			continue
		}
		if !st.seeded {
			st.last, st.lastAt, st.seeded = count, now, true
			continue
		}
		rate := metrics.Rate(st.last, count, now-st.lastAt) * 8 // octets -> bits
		st.last, st.lastAt = count, now
		smoothed := st.ewma.Update(rate)
		util := 0.0
		if wl.Capacity > 0 {
			util = smoothed / wl.Capacity
		}
		report.Loads = append(report.Loads, LinkLoad{
			Link: wl.Link, Name: wl.Name, RateBps: smoothed, Utilisation: util,
		})
		p.updateAlarm(wl, st, util)
	}
	if p.OnReport != nil && len(report.Loads) > 0 {
		p.OnReport(report)
	}
}

// refWatchAllLinks is WatchAllLinks as it stood before the carved watch
// list, kept verbatim as the oracle of TestWatchAllLinksMatchesReference:
// an OID and a name per link, and a list grown by append.
func refWatchAllLinks(t *topo.Topology) []WatchedLink {
	var out []WatchedLink
	for _, l := range t.Links() {
		if t.Node(l.From).Host || t.Node(l.To).Host || l.Capacity <= 0 {
			continue
		}
		out = append(out, WatchedLink{
			Link:     l.ID,
			OID:      snmp.OIDIfHCOutOctets.Append(snmp.IfIndex(l.ID)),
			Capacity: l.Capacity,
			Name:     fmt.Sprintf("%s-%s", t.Name(l.From), t.Name(l.To)),
		})
	}
	return out
}
