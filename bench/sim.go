package main

// A simulation of the whole stack driven from outside, in slices: built
// through the public controller.NewSim and flashcrowd.Runner.Schedule,
// with the public callback fields wrapped after construction, advanced
// one second of simulated time at a time. It is crowd-20k's gated op (a
// tick per slice) and, with a recorder, the traced pass of both loop
// workloads.

import (
	"fmt"
	"time"

	"fibbing.net/fibbing/internal/bfd"
	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/monitor"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/ospf"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
)

// hotThreshold is the utilisation the monitor alarms at, and the sample
// level from which a reaction is timed (the scenario harness's value).
const hotThreshold = 0.85

// slicedSim describes one such simulation.
type slicedSim struct {
	name     string
	topo     scenarios.TopoSpec
	duration time.Duration
	bfd      bool
	// waves builds the schedule and, for failover runs, names the link
	// to fail and when.
	waves func(tp *topo.Topology, prefix string) ([]flashcrowd.Wave, *linkFailure, error)
}

type linkFailure struct {
	at   time.Duration
	a, b string
}

// simMarks is the simulated-time chain of one sliced simulation, and the
// counters read through the wrapped callbacks. Durations are -1 until
// seen.
type simMarks struct {
	firstHot, firstAlarm, firstCommit time.Duration
	lastDelta, stallsStop             time.Duration
	failAt, bfdDown                   time.Duration
	polls, alarms                     int
	deltas, deltaRoutes               int
	packets                           uint64
	stallS                            float64 // viewers' total stall time at the end
}

func newMarks() simMarks {
	return simMarks{firstHot: -1, firstAlarm: -1, firstCommit: -1, lastDelta: -1, stallsStop: -1, failAt: -1, bfdDown: -1}
}

// run executes the simulation. With a recorder it records a span per
// slice and per wrapped callback; with nil it runs the identical code
// with the spans reduced to nil checks — the untraced twin. tick is
// called between slices.
func (ts slicedSim) run(rec *recorder, tick func()) (*controller.Sim, simMarks, error) {
	mk := newMarks()
	tp, prefix, err := ts.topo.Build()
	if err != nil {
		return nil, mk, err
	}
	waves, failure, err := ts.waves(tp, prefix)
	if err != nil {
		return nil, mk, err
	}
	p, _ := tp.PrefixByName(prefix)
	opts := controller.SimOpts{
		Topology:     tp,
		Prefix:       prefix,
		AttachAt:     tp.Name(p.Attachments[0].Node),
		WithCtrl:     true,
		TrackPlayers: true,
		SampleEvery:  500 * time.Millisecond,
		VideoSample:  250 * time.Millisecond,
		Monitor:      monitor.Config{HighThreshold: hotThreshold},
	}
	if ts.bfd {
		opts.BFD = &bfd.Config{Seed: 1}
		opts.StandbyK = 3
	}
	var sim *controller.Sim
	rec.in("controller.newsim", func() { sim, err = controller.NewSim(opts) })
	if err != nil {
		return nil, mk, err
	}
	now := sim.Sched.Now

	// Every path into Controller.Handle.
	handle := func(fn func()) {
		id := rec.begin("controller.handle")
		fn()
		rec.end(id)
	}
	onAlarm := sim.Poller.OnAlarm
	sim.Poller.OnAlarm = func(a monitor.Alarm) {
		mk.alarms++
		if mk.firstAlarm < 0 && a.Raised {
			mk.firstAlarm = now()
		}
		handle(func() { onAlarm(a) })
	}
	sim.Poller.OnReport = func(monitor.Report) { mk.polls++ }
	onAdj := sim.Domain.OnAdjacencyChange
	sim.Domain.OnAdjacencyChange = func(l topo.Link, up bool) { handle(func() { onAdj(l, up) }) }
	if sim.BFD != nil {
		onDown, onUp := sim.BFD.OnDown, sim.BFD.OnUp
		sim.BFD.OnDown = func(l topo.Link) {
			if mk.bfdDown < 0 {
				mk.bfdDown = now()
			}
			handle(func() { onDown(l) })
		}
		sim.BFD.OnUp = func(l topo.Link) { handle(func() { onUp(l) }) }
	}
	// Joins: the runner calls OnJoin, then Network.AddFlow, then
	// OnFlowStarted, so the gap between the two callbacks is AddFlow.
	onJoin, onLeave, onStarted := sim.Runner.OnJoin, sim.Runner.OnLeave, sim.Runner.OnFlowStarted
	addFlow := -1
	sim.Runner.OnJoin = func(in topo.NodeID, rate float64) {
		handle(func() { onJoin(in, rate) })
		addFlow = rec.begin("netsim.addflow")
	}
	sim.Runner.OnFlowStarted = func(id netsim.FlowID, rate float64) {
		rec.end(addFlow)
		sid := rec.begin("video.attach")
		onStarted(id, rate)
		rec.end(sid)
	}
	sim.Runner.OnLeave = func(in topo.NodeID, rate float64) { handle(func() { onLeave(in, rate) }) }
	// FIB deltas into the data plane.
	onDelta := sim.Domain.OnFIBDelta
	sim.Domain.OnFIBDelta = func(n topo.NodeID, t *fib.Table, d *fib.Diff) {
		mk.deltas++
		mk.deltaRoutes += len(d.Changes)
		if len(sim.Ctrl.Decisions) == 1 {
			mk.lastDelta = now()
		}
		id := rec.begin("netsim.applydiff")
		onDelta(n, t, d)
		rec.end(id)
	}

	// A sampler on the simulation's own clock catches the first hot
	// instant at the scenario harness's resolution.
	sim.Sched.NewTicker(250*time.Millisecond, func() {
		if mk.firstHot < 0 && sim.Net.MaxUtilisation() >= hotThreshold {
			mk.firstHot = now()
		}
	})

	if failure != nil {
		mk.failAt = failure.at
		sim.Sched.At(failure.at, func() {
			if e := sim.SetLinkState(failure.a, failure.b, false); e != nil && err == nil {
				err = e
			}
		})
	}
	if e := sim.Runner.Schedule(waves); e != nil {
		return nil, mk, e
	}
	// Between slices: the last instant after the first commit at which
	// viewers were still accumulating stall time.
	var lastStall float64
	for t := time.Second; t <= ts.duration; t += time.Second {
		id := rec.begin("event.run")
		sim.Run(t)
		rec.end(id)
		var stall float64
		for _, s := range sim.Sessions {
			stall += s.QoE().StallTime.Seconds()
		}
		if stall > lastStall && len(sim.Ctrl.Decisions) == 1 {
			mk.stallsStop = t
		}
		lastStall = stall
		tick()
	}
	if err != nil {
		return nil, mk, err
	}
	if len(sim.Ctrl.Errors) > 0 || len(sim.Domain.Errors) > 0 {
		return nil, mk, fmt.Errorf("%s: controller errors %v, protocol errors %v", ts.name, sim.Ctrl.Errors, sim.Domain.Errors)
	}
	if len(sim.Ctrl.Decisions) == 0 {
		return nil, mk, fmt.Errorf("%s: the controller never committed a plan", ts.name)
	}
	mk.firstCommit = sim.Ctrl.Decisions[0].At
	mk.stallS = lastStall
	mk.packets = sim.Domain.Stats().PacketsSent
	return sim, mk, nil
}

// gap returns b-a in ms when both instants were seen and ordered.
func gap(a, b time.Duration) float64 {
	if a < 0 || b < a {
		return 0
	}
	return ms(b - a)
}

// marksMetrics reports what the traced simulations' wrapped callbacks
// counted, and their simulated-time chains.
func marksMetrics(m metricSet, marks []simMarks) {
	for _, mk := range marks {
		m["ospf.packets_sent"] += float64(mk.packets)
		m["ospf.fib_deltas"] += float64(mk.deltas)
		m["fib.diff_routes"] += float64(mk.deltaRoutes)
		m["monitor.polls"] += float64(mk.polls)
		m["monitor.alarms"] += float64(mk.alarms)
		if mk.failAt < 0 {
			m["monitor.detect_sim_ms"] = gap(mk.firstHot, mk.firstAlarm)
			m["video.recover_sim_ms"] = gap(mk.firstCommit, mk.stallsStop)
			m["ospf.flood_sim_ms"] = gap(mk.firstCommit, mk.lastDelta)
		} else {
			m["bfd.detect_sim_ms"] = gap(mk.failAt, mk.bfdDown)
		}
	}
}

// probeForwarding times the forwarding and monitoring layers directly on
// a finished simulation's converged state.
func probeForwarding(m metricSet, sim *controller.Sim) {
	tp := sim.Topo
	p, _ := tp.PrefixByName(sim.Runner.Prefix)
	var ingress topo.NodeID
	for _, n := range tp.Nodes() {
		if !n.Host && n.ID != p.Attachments[0].Node {
			ingress = n.ID
		}
	}
	key := fib.FlowKey{Src: ospf.Loopback(ingress), Dst: ospf.HostAddr(p.Prefix, 7), SrcPort: 10007, DstPort: 8080, Proto: 6}
	plane := sim.Domain.Plane()
	m["fib.trace_us"] = probeNs(2000, func() { plane.Trace(ingress, key) }) / 1e3
	table := sim.Domain.Router(ingress).FIB()
	m["lpm.lookup_ns"] = probeNs(20000, func() { table.Lookup(key.Dst) })

	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, sim.Net, topo.NoNode)
	client := snmp.NewClient(snmp.DirectTransport{Agent: snmp.NewAgent("public", mib)}, "public")
	oid := snmp.OIDIfHCOutOctets.Append(snmp.IfIndex(0))
	m["snmp.get_us"] = probeNs(2000, func() { client.GetCounter(oid) }) / 1e3
}
