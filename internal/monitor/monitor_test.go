package monitor

import (
	"math"
	"net/netip"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
)

// rig builds a 2-router network with one 10 Mbit/s link, an SNMP agent
// over the simulator, and a poller.
type rig struct {
	tp    *topo.Topology
	sched *event.Scheduler
	net   *netsim.Network
	pol   *Poller
	link  topo.LinkID
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	tp := topo.New()
	a := tp.AddNode("a")
	b := tp.AddNode("b")
	ab, _ := tp.AddLink(a, b, 1, topo.LinkOpts{Capacity: 10e6})
	pfx := netip.MustParsePrefix("10.100.0.0/16")
	tp.AddPrefix(pfx, "p", topo.Attachment{Node: b})

	sched := event.NewScheduler()
	net := netsim.New(tp, sched, time.Second)
	ta := fib.NewTable(a)
	if err := ta.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: b, Link: ab, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	tb := fib.NewTable(b)
	if err := tb.Install(fib.Route{Prefix: pfx, Local: true}); err != nil {
		t.Fatal(err)
	}
	net.SetTable(a, ta)
	net.SetTable(b, tb)

	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, net, topo.NoNode)
	agent := snmp.NewAgent("public", mib)
	client := snmp.NewClient(snmp.DirectTransport{Agent: agent}, "public")
	pol := NewPoller(client, sched, cfg, WatchAllLinks(tp))
	return &rig{tp: tp, sched: sched, net: net, pol: pol, link: ab}
}

func (r *rig) addFlow(port uint16, rate float64) netsim.FlowID {
	key := fib.FlowKey{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.100.0.1"),
		SrcPort: port, DstPort: 80, Proto: 6,
	}
	return r.net.AddFlow(r.tp.MustNode("a"), key, rate)
}

func TestPollerMeasuresRate(t *testing.T) {
	r := newRig(t, Config{})
	var reports []Report
	r.pol.OnReport = func(rep Report) { reports = append(reports, rep) }
	r.pol.Start()
	r.addFlow(1, 4e6)
	r.sched.RunUntil(10 * pollInterval)
	if len(r.pol.Errors) > 0 {
		t.Fatalf("poll errors: %v", r.pol.Errors)
	}
	if len(reports) < 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	last := reports[len(reports)-1]
	load, ok := last.MaxUtilisation()
	if !ok {
		t.Fatalf("empty report")
	}
	if math.Abs(load.RateBps-4e6) > 1e5 {
		t.Fatalf("rate = %v, want ~4e6", load.RateBps)
	}
	if math.Abs(load.Utilisation-0.4) > 0.02 {
		t.Fatalf("util = %v, want ~0.4", load.Utilisation)
	}
}

// TestAlarmRaiseAndClearWithHysteresis: a hot link raises on its first
// measured poll; a load that falls below the high threshold but stays
// above lowThreshold keeps the alarm raised without repeats; once idle,
// the alarm clears on exactly the clearAfter-th consecutive smoothed
// utilisation at or below lowThreshold.
func TestAlarmRaiseAndClearWithHysteresis(t *testing.T) {
	r := newRig(t, Config{HighThreshold: 0.8})
	var alarms []Alarm
	var alarmAt []time.Duration
	r.pol.OnAlarm = func(a Alarm) {
		alarms = append(alarms, a)
		alarmAt = append(alarmAt, r.sched.Now())
	}
	var reports []Report
	r.pol.OnReport = func(rep Report) { reports = append(reports, rep) }
	r.pol.Start()

	id := r.addFlow(1, 9e6) // util 0.9
	r.sched.RunUntil(5 * time.Second)
	// The first poll seeds the counter; the second measures and raises.
	if want := (1 + raiseAfter) * pollInterval; len(alarms) != 1 || !alarms[0].Raised || alarmAt[0] != want {
		t.Fatalf("alarms after surge = %+v at %v, want one raise at %v", alarms, alarmAt, want)
	}

	r.net.RemoveFlow(id)
	id = r.addFlow(2, 5e6) // util 0.5: in the hysteresis band
	r.sched.RunUntil(41 * time.Second)
	if len(alarms) != 1 {
		t.Fatalf("alarms in the hysteresis band = %+v", alarms)
	}
	band := reports[len(reports)-1].Loads[0].Utilisation
	if band >= 0.8 || band <= lowThreshold {
		t.Fatalf("smoothed utilisation %v is not in the band", band)
	}

	drained := len(reports)
	r.net.RemoveFlow(id)
	r.sched.RunUntil(60 * time.Second)
	if len(alarms) != 2 || alarms[1].Raised {
		t.Fatalf("alarms after drain = %+v", alarms)
	}
	var clearAt time.Duration
	for i, streak := drained, 0; i < len(reports); i++ {
		if reports[i].Loads[0].Utilisation > lowThreshold {
			streak = 0
			continue
		}
		if streak++; streak == clearAfter {
			clearAt = reports[i].At
			break
		}
	}
	if clearAt == 0 || alarmAt[1] != clearAt {
		t.Fatalf("cleared at %v, want the poll that completes %d cool polls (%v)", alarmAt[1], clearAfter, clearAt)
	}
}

// TestRaisedAlarmRepeatsEverySecondHotPoll: while an alarm stays raised it
// re-fires on every repeatEvery-th consecutive poll at or above the high
// threshold; a poll below it restarts the count.
func TestRaisedAlarmRepeatsEverySecondHotPoll(t *testing.T) {
	r := newRig(t, Config{})
	var alarmAt []time.Duration
	r.pol.OnAlarm = func(a Alarm) {
		if !a.Raised {
			t.Fatalf("alarm cleared at %v", r.sched.Now())
		}
		alarmAt = append(alarmAt, r.sched.Now())
	}
	r.pol.Start()
	surge := r.addFlow(1, 9e6) // util 0.9, above the 0.85 default
	r.sched.RunUntil(19 * time.Second)
	// Measured polls 1..8 at 4..18 s are hot: the raise on the first,
	// repeats on hot streaks 2, 4, 6 and 8.
	want := []time.Duration{4 * time.Second, 6 * time.Second, 10 * time.Second, 14 * time.Second, 18 * time.Second}
	if !slices.Equal(alarmAt, want) {
		t.Fatalf("alarms at %v, want %v", alarmAt, want)
	}

	// A cooler window breaks the streak: 0.5 from 19 s smooths to 0.76 at
	// 20 s. Back at 0.9 just after that poll, 22 s (0.86) starts a new
	// streak and 24 s completes it.
	r.net.RemoveFlow(surge)
	cool := r.addFlow(2, 5e6)
	r.sched.RunUntil(20*time.Second + 1)
	r.net.RemoveFlow(cool)
	r.addFlow(3, 9e6)
	alarmAt = alarmAt[:0]
	r.sched.RunUntil(27 * time.Second)
	want = []time.Duration{24 * time.Second}
	if !slices.Equal(alarmAt, want) {
		t.Fatalf("alarms after a cool poll at %v, want %v", alarmAt, want)
	}
}

// TestOneCoolPollKeepsAlarmRaised: the clearing side of the hysteresis
// takes more than one cool poll, so a load that dips below lowThreshold
// for a single poll and comes back does not flap the alarm.
func TestOneCoolPollKeepsAlarmRaised(t *testing.T) {
	r := newRig(t, Config{})
	var alarms []Alarm
	r.pol.OnAlarm = func(a Alarm) { alarms = append(alarms, a) }
	var reports []Report
	r.pol.OnReport = func(rep Report) { reports = append(reports, rep) }
	r.pol.Start()
	surge := r.addFlow(1, 9e6) // util 0.9: raised at the 4 s poll
	r.sched.RunUntil(4*time.Second + 1)
	// Idle windows smooth to 0.27 at 6 s and 0.081 at 8 s: one cool poll.
	r.net.RemoveFlow(surge)
	r.sched.RunUntil(8*time.Second + 1)
	r.addFlow(2, 9e6) // back hot: 0.65 at 10 s ends the cool streak
	r.sched.RunUntil(10*time.Second + 1)
	var cool int
	for _, rep := range reports {
		if rep.Loads[0].Utilisation <= lowThreshold {
			cool++
		}
	}
	if cool != 1 {
		t.Fatalf("%d cool polls, want the one this test is about", cool)
	}
	if len(alarms) != 1 || !alarms[0].Raised {
		t.Fatalf("alarms = %+v, want the one raise: a single cool poll must not clear", alarms)
	}
}

func TestAlarmNotRaisedBelowThreshold(t *testing.T) {
	r := newRig(t, Config{HighThreshold: 0.7})
	var alarms []Alarm
	r.pol.OnAlarm = func(a Alarm) { alarms = append(alarms, a) }
	r.pol.Start()
	r.addFlow(1, 5e6) // util 0.5: in the hysteresis band, no alarm
	r.sched.RunUntil(10 * pollInterval)
	if len(alarms) != 0 {
		t.Fatalf("alarms = %+v", alarms)
	}
}

// TestEWMASmoothsSpikes: one poll window at full line rate after an idle
// start measures a raw utilisation of 1.0, above the default threshold,
// but smooths to ewmaAlpha of it and raises nothing.
func TestEWMASmoothsSpikes(t *testing.T) {
	r := newRig(t, Config{})
	var alarms []Alarm
	r.pol.OnAlarm = func(a Alarm) { alarms = append(alarms, a) }
	peak := 0.0
	r.pol.OnReport = func(rep Report) { peak = max(peak, rep.Loads[0].Utilisation) }
	r.pol.Start()
	r.sched.RunUntil(3 * pollInterval) // seeded, then two idle measurements
	id := r.addFlow(1, 10e6)
	r.sched.RunUntil(4 * pollInterval)
	r.net.RemoveFlow(id)
	r.sched.RunUntil(10 * pollInterval)
	if len(alarms) != 0 {
		t.Fatalf("EWMA did not absorb spike: %+v", alarms)
	}
	if math.Abs(peak-ewmaAlpha) > 1e-6 {
		t.Fatalf("peak smoothed utilisation %v, want %v", peak, ewmaAlpha)
	}
}

func TestWatchAllLinksSkipsHostsAndUncapacitated(t *testing.T) {
	tp := topo.Fig1(topo.Fig1Opts{WithHosts: true})
	links := WatchAllLinks(tp)
	for _, wl := range links {
		l := tp.Link(wl.Link)
		if tp.Node(l.From).Host || tp.Node(l.To).Host {
			t.Fatalf("host link watched: %s", wl.Name)
		}
	}
	// Fig1 has 8 symmetric core links = 16 directed.
	if len(links) != 16 {
		t.Fatalf("watched %d links, want 16", len(links))
	}
}

func TestStopHaltsPolling(t *testing.T) {
	r := newRig(t, Config{})
	count := 0
	r.pol.OnReport = func(Report) { count++ }
	r.pol.Start()
	r.addFlow(1, 1e6)
	r.sched.RunUntil(5 * pollInterval)
	r.pol.Stop()
	at := count
	r.sched.RunUntil(10 * pollInterval)
	if count != at {
		t.Fatalf("polling continued after Stop: %d -> %d", at, count)
	}
}

// TestPollerSurvivesAgentErrors points the poller at an agent with a
// mismatched community: every poll fails, errors accumulate, and the loop
// keeps running (an unreachable agent must never kill monitoring).
func TestPollerSurvivesAgentErrors(t *testing.T) {
	r := newRig(t, Config{})
	// Swap in a client with the wrong community.
	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, r.net, topo.NoNode)
	badAgent := snmp.NewAgent("secret", mib)
	badClient := snmp.NewClient(snmp.DirectTransport{Agent: badAgent}, "wrong")
	pol := NewPoller(badClient, r.sched, Config{}, WatchAllLinks(r.tp))
	reports := 0
	pol.OnReport = func(Report) { reports++ }
	pol.Start()
	r.sched.RunUntil(10 * pollInterval)
	if len(pol.Errors) < 5 {
		t.Fatalf("errors = %d, want one per poll per link", len(pol.Errors))
	}
	if reports != 0 {
		t.Fatalf("reports despite failing polls: %d", reports)
	}
	// Poller still ticking: more errors accrue.
	before := len(pol.Errors)
	r.sched.RunUntil(15 * pollInterval)
	if len(pol.Errors) <= before {
		t.Fatalf("poll loop died after errors")
	}
}

// TestPollerHCCounterCrosses32BitBoundary verifies the reason the poller
// watches the 64-bit HC counters: a counter crossing the 2^32 boundary
// (where a Counter32 would wrap and corrupt the delta) yields a clean
// rate, because Counter64 deltas are exact.
func TestPollerHCCounterCrosses32BitBoundary(t *testing.T) {
	sched := event.NewScheduler()
	mib := snmp.NewMIB()
	oid := snmp.MustOID("1.3.6.1.2.1.2.2.1.16.1")
	count := uint64(1<<32 - 2500) // crosses 2^32 on the third poll
	mib.Register(oid, func() snmp.Value {
		count += 1000 // 1000 octets per poll
		return snmp.Counter64Value(count)
	})
	client := snmp.NewClient(snmp.DirectTransport{Agent: snmp.NewAgent("c", mib)}, "c")
	pol := NewPoller(client, sched, Config{}, []WatchedLink{
		{Link: 0, OID: oid, Capacity: 1e6, Name: "wrap"},
	})
	var rates []float64
	pol.OnReport = func(rep Report) {
		for _, l := range rep.Loads {
			rates = append(rates, l.RateBps)
		}
	}
	pol.Start()
	sched.RunUntil(6 * pollInterval)
	if len(rates) < 3 {
		t.Fatalf("rates = %v", rates)
	}
	for i, r := range rates {
		// 8000 bits per poll; a wrap mishandled as signed delta would
		// produce a huge or negative spike.
		if want := 8000 / pollInterval.Seconds(); math.Abs(r-want) > 1 {
			t.Fatalf("rate %d = %v across wrap, want %v", i, r, want)
		}
	}
}

// TestPollErrorsCappedAndCounted: a permanently unreachable agent keeps
// failing every link on every tick; the retained error list stops at
// maxPollErrors while the metrics counter keeps the true total.
func TestPollErrorsCappedAndCounted(t *testing.T) {
	r := newRig(t, Config{})
	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, r.net, topo.NoNode)
	badClient := snmp.NewClient(snmp.DirectTransport{Agent: snmp.NewAgent("secret", mib)}, "wrong")
	pol := NewPoller(badClient, r.sched, Config{}, WatchAllLinks(r.tp))
	pol.Start()
	r.sched.RunUntil(60 * pollInterval)
	if len(pol.Errors) != maxPollErrors {
		t.Fatalf("retained errors = %d, want capped at %d", len(pol.Errors), maxPollErrors)
	}
	if got := pol.PollFailures.Value(); got <= uint64(maxPollErrors) {
		t.Fatalf("PollFailures = %d, want the uncapped total (> %d)", got, maxPollErrors)
	}
}
