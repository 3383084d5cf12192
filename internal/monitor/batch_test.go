package monitor

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
)

// chainRun polls a live three-router chain a-b-c (10 Mbit/s links, flows
// a->c crossing both) 40 times with the given poll body, and returns
// everything the poller said, stamped with the instant it said it. The
// alarm handler reroutes mid-poll: a raise on the first link removes a
// flow that also loads the link read after it, a repeat removes the
// other, a clear puts both back. One watched OID is not served, so one
// link fails every poll. Reports are logged only when listen is set;
// without it the poller has no OnReport.
func chainRun(t *testing.T, poll func(*Poller), listen bool) (log []string, failures uint64, errs []string) {
	t.Helper()
	tp := topo.New()
	a, b, c := tp.AddNode("a"), tp.AddNode("b"), tp.AddNode("c")
	ab, _ := tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 10e6})
	bc, _ := tp.AddLink(b, c, 1, topo.LinkOpts{Capacity: 10e6})
	pfx := netip.MustParsePrefix("10.100.0.0/16")
	tp.AddPrefix(pfx, "p", topo.Attachment{Node: c})

	sched := event.NewScheduler()
	net := netsim.New(tp, sched, time.Second)
	for _, hop := range []struct {
		at   topo.NodeID
		next fib.Route
	}{
		{a, fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: b, Link: ab, Weight: 1}}}},
		{b, fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: c, Link: bc, Weight: 1}}}},
		{c, fib.Route{Prefix: pfx, Local: true}},
	} {
		tbl := fib.NewTable(hop.at)
		if err := tbl.Install(hop.next); err != nil {
			t.Fatal(err)
		}
		net.SetTable(hop.at, tbl)
	}
	flow := func(port uint16, rate float64) netsim.FlowID {
		return net.AddFlow(a, fib.FlowKey{
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.100.0.1"),
			SrcPort: port, DstPort: 80, Proto: 6,
		}, rate)
	}

	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, net, topo.NoNode)
	client := snmp.NewClient(snmp.DirectTransport{Agent: snmp.NewAgent("public", mib)}, "public")
	links := WatchAllLinks(tp)
	links = append(links[:1:1], append([]WatchedLink{{
		Link: 77, OID: snmp.OIDIfHCOutOctets.Append(7777), Capacity: 1e6, Name: "ghost",
	}}, links[1:]...)...)
	p := NewPoller(client, sched, Config{HighThreshold: 0.35}, links)

	base, surge := flow(1, 4e6), flow(2, 5e6)
	raised := false
	if listen {
		p.OnReport = func(r Report) { log = append(log, fmt.Sprintf("%v report %+v", sched.Now(), r)) }
	}
	p.OnAlarm = func(al Alarm) {
		log = append(log, fmt.Sprintf("%v alarm %+v", sched.Now(), al))
		if al.Link != ab {
			return
		}
		switch {
		case !al.Raised:
			base, surge = flow(1, 4e6), flow(2, 5e6)
		case raised:
			net.RemoveFlow(base) // a repeat: removing the surge was not enough
		default:
			net.RemoveFlow(surge)
		}
		raised = al.Raised
	}
	p.ticker = sched.NewTicker(pollInterval, func() { poll(p) })
	sched.RunUntil(40 * pollInterval)
	for _, err := range p.Errors {
		errs = append(errs, err.Error())
	}
	return log, p.PollFailures.Value(), errs
}

// TestBatchedPollMatchesPerLinkPoll: reading every counter before the
// walk instead of between its alarm callbacks changes nothing — the same
// reports, the same alarms at the same instants, the same failures —
// because netsim's octet counters are functions of the instant. Without
// a report listener the batched poll builds no report and raises the same
// alarms.
func TestBatchedPollMatchesPerLinkPoll(t *testing.T) {
	wantLog, wantFailures, wantErrs := chainRun(t, refPoll, true)
	gotLog, gotFailures, gotErrs := chainRun(t, (*Poller).poll, true)
	alarms := 0
	for _, line := range wantLog {
		if strings.Contains(line, " alarm ") {
			alarms++
		}
	}
	if alarms < 20 || wantFailures != 40 || len(wantErrs) != maxPollErrors {
		t.Fatalf("the scenario went quiet: %d alarms, %d failures, %d errors", alarms, wantFailures, len(wantErrs))
	}
	if !slices.Equal(gotLog, wantLog) {
		for i := range min(len(gotLog), len(wantLog)) {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("entry %d differs:\n got %v\nwant %v", i, gotLog[i], wantLog[i])
			}
		}
		t.Fatalf("batched poll logged %d entries, per-link %d", len(gotLog), len(wantLog))
	}
	if gotFailures != wantFailures || !slices.Equal(gotErrs, wantErrs) {
		t.Fatalf("failures %d %v, per-link %d %v", gotFailures, gotErrs, wantFailures, wantErrs)
	}

	wantAlarms := slices.DeleteFunc(slices.Clone(wantLog), func(line string) bool { return strings.Contains(line, " report ") })
	quietLog, quietFailures, quietErrs := chainRun(t, (*Poller).poll, false)
	if !slices.Equal(quietLog, wantAlarms) || quietFailures != wantFailures || !slices.Equal(quietErrs, wantErrs) {
		t.Fatalf("without a report listener the poll logged %v (%d failures), want the per-link poll's alarms %v (%d failures)",
			quietLog, quietFailures, wantAlarms, wantFailures)
	}
}

// syntheticPoller watches n counters that each grow 1000 octets per read,
// over DirectTransport (wrapped by wrap, if any), with no simulator behind
// them.
func syntheticPoller(n int, wrap func(snmp.Transport) snmp.Transport) (*Poller, *event.Scheduler) {
	mib := snmp.NewMIB()
	links := make([]WatchedLink, n)
	for i := range links {
		var count uint64
		oid := snmp.OIDIfHCOutOctets.Append(snmp.IfIndex(topo.LinkID(i)))
		mib.Register(oid, func() snmp.Value {
			count += 1000
			return snmp.Counter64Value(count)
		})
		links[i] = WatchedLink{Link: topo.LinkID(i), OID: oid, Capacity: 1e6, Name: fmt.Sprint("l", i)}
	}
	sched := event.NewScheduler()
	var tr snmp.Transport = snmp.DirectTransport{Agent: snmp.NewAgent("c", mib)}
	if wrap != nil {
		tr = wrap(tr)
	}
	client := snmp.NewClient(tr, "c")
	return NewPoller(client, sched, Config{}, links), sched
}

// swapTransport swaps the first two varbinds of every response.
type swapTransport struct{ next snmp.Transport }

func (s swapTransport) RoundTrip(req []byte) ([]byte, error) {
	raw, err := s.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	m, err := snmp.DecodeMessage(raw)
	if err != nil {
		return nil, err
	}
	vbs := m.PDU.VarBinds
	vbs[0], vbs[1] = vbs[1], vbs[0]
	return m.Encode(), nil
}

// TestMismatchedResponseFailsItsRequest: when a response does not echo
// the requested OIDs in order, every link of that request counts one
// failure and records no rate — a reordered batch must never credit one
// link's octets to another.
func TestMismatchedResponseFailsItsRequest(t *testing.T) {
	const n = 50 // two requests, both swapped
	p, sched := syntheticPoller(n, func(tr snmp.Transport) snmp.Transport { return swapTransport{tr} })
	p.OnReport = func(r Report) { t.Fatalf("report from swapped responses: %+v", r) }
	p.Start()
	sched.RunUntil(3 * pollInterval)
	if got := p.PollFailures.Value(); got != 3*n {
		t.Fatalf("PollFailures = %d after 3 polls of %d links, want %d", got, n, 3*n)
	}
	if len(p.Errors) != maxPollErrors || !strings.Contains(p.Errors[0].Error(), "monitor: poll l0: snmp: varbind 0 answers") {
		t.Fatalf("errors = %d, first %v", len(p.Errors), p.Errors[0])
	}
}
