package scenarios

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/spf"
	"fibbing.net/fibbing/internal/topo"
)

// env is everything the workload builders derive from a built topology:
// where the crowd enters, how much a single IGP path can carry, and which
// link the failure schedules break.
type env struct {
	tp     *topo.Topology
	prefix string
	attach topo.NodeID

	// primary is the crowd's main ingress: the router farthest from the
	// attachment (ties broken by name) among routers with at least two
	// router neighbors, so alternative paths exist to spread onto.
	primary string
	// secondary is the next-farthest distinct ingress (the "dual"
	// workload's second source).
	secondary string
	// pathCap is the bottleneck capacity (bit/s) of the primary's
	// shortest path towards the attachment: the capacity the IGP alone
	// would funnel the whole crowd through.
	pathCap float64
	// viewers, when positive, slices the crowd's demand into that many
	// equal-rate sessions (exact for surge and fig2, approximate for the
	// fraction-derived workloads; see Spec.Viewers).
	viewers int
	// hop1A/hop1B name the first link of that shortest path (the failure
	// schedules' victim).
	hop1A, hop1B string
}

// buildEnv analyses a topology for the workload generators.
func buildEnv(tp *topo.Topology, prefix string) (*env, error) {
	p, ok := tp.PrefixByName(prefix)
	if !ok {
		return nil, fmt.Errorf("scenarios: no prefix %q", prefix)
	}
	attach := p.Attachments[0].Node

	// Distances from the attachment; links are symmetric so this equals
	// the distance towards it.
	g := spf.FromTopology(tp)
	tree := spf.Compute(g, attach, nil)

	type cand struct {
		id   topo.NodeID
		name string
		dist int64
	}
	var cands []cand
	for _, n := range tp.Nodes() {
		if n.Host || n.ID == attach || !tree.Reachable(n.ID) {
			continue
		}
		deg := 0
		for _, lid := range tp.OutLinks(n.ID) {
			if !tp.Node(tp.Link(lid).To).Host {
				deg++
			}
		}
		if deg < 2 {
			continue // a stub router cannot spread anything
		}
		cands = append(cands, cand{n.ID, n.Name, tree.Dist[n.ID]})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("scenarios: no viable ingress router (all stubs)")
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.dist, a.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	e := &env{tp: tp, prefix: prefix, attach: attach, primary: cands[0].name}
	if len(cands) > 1 {
		e.secondary = cands[1].name
	} else {
		e.secondary = cands[0].name
	}

	// Bottleneck capacity and first hop of the primary's shortest path.
	src := tp.MustNode(e.primary)
	fromSrc := spf.Compute(g, src, nil)
	paths := fromSrc.Paths(attach, 1)
	if len(paths) == 0 || len(paths[0]) < 2 {
		return nil, fmt.Errorf("scenarios: no path %s -> %s", e.primary, tp.Name(attach))
	}
	path := paths[0]
	e.pathCap = math.Inf(1)
	for i := 0; i+1 < len(path); i++ {
		l, ok := tp.FindLink(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("scenarios: path link %s -> %s missing", tp.Name(path[i]), tp.Name(path[i+1]))
		}
		if l.Capacity > 0 && l.Capacity < e.pathCap {
			e.pathCap = l.Capacity
		}
	}
	if math.IsInf(e.pathCap, 1) {
		return nil, fmt.Errorf("scenarios: shortest path from %s has no capacitated link", e.primary)
	}
	e.hop1A, e.hop1B = tp.Name(path[0]), tp.Name(path[1])
	return e, nil
}

// cascadeVictim is the "cascade" schedule's second victim: where would
// the reroute go once hop1 is dead? The first link of the primary's
// shortest surviving path whose loss, with hop1's, does not partition the
// routers: failing the reroute's very first hop can isolate a degree-two
// ingress, and a partition is a different experiment. ok is false when
// no such link exists.
func (e *env) cascadeVictim() (a, b string, ok bool) {
	tp := e.tp
	src := tp.MustNode(e.primary)
	hop1, _ := tp.FindLink(src, tp.MustNode(e.hop1B))
	rpaths := spf.Compute(spf.FromTopology(tp.CloneWithoutLinks(hop1.ID)), src, nil).Paths(e.attach, 1)
	if len(rpaths) == 0 {
		return "", "", false
	}
	rp := rpaths[0]
	for i := 0; i+1 < len(rp); i++ {
		l, _ := tp.FindLink(rp[i], rp[i+1])
		if tp.RoutersConnectedWithout(hop1.ID, l.ID) {
			return tp.Name(rp[i]), tp.Name(rp[i+1]), true
		}
	}
	return "", "", false
}

// overloadFactor is every workload's steady demand relative to the
// primary path's bottleneck capacity: plain IGP must saturate.
const overloadFactor = 1.7

// videoRate sizes the per-session bitrate so ~25 sessions fill one path;
// with an explicit viewer count the same total demand is sliced into that
// many sessions instead.
func (e *env) videoRate() float64 {
	if e.viewers > 0 {
		return overloadFactor * e.pathCap / float64(e.viewers)
	}
	return e.pathCap / 25
}

// flowsFor converts a fraction of the path capacity into a session count.
func (e *env) flowsFor(fraction float64) int {
	n := int(math.Round(fraction * e.pathCap / e.videoRate()))
	if n < 1 {
		n = 1
	}
	return n
}

// buildWaves produces the wave schedule of a workload kind. Every
// workload overloads the primary ingress's single shortest path (total
// demand ~1.7x its bottleneck capacity) so that plain IGP routing
// saturates while the LP optimum — which may spread over the ingress's
// other links — stays clearly below 1.
func buildWaves(kind string, e *env, duration time.Duration, seed int64) ([]flashcrowd.Wave, error) {
	rate := e.videoRate()
	switch kind {
	case "surge":
		// The demo's shape: a scout flow, then two surges from the same
		// ingress (1 / +N at 5 s / +M at 12 s). An explicit viewer count
		// splits exactly that many sessions over the two surges.
		first, second := e.flowsFor(0.85), e.flowsFor(0.80)
		if e.viewers > 0 {
			first = e.viewers / 2
			second = e.viewers - 1 - first
		}
		waves := []flashcrowd.Wave{
			{At: 1 * time.Second, Ingress: e.primary, Flows: 1, Rate: rate},
			{At: 5 * time.Second, Ingress: e.primary, Flows: first, Rate: rate},
			{At: 12 * time.Second, Ingress: e.primary, Flows: second, Rate: rate},
		}
		return nonEmptyWaves(waves), nil
	case "fig2":
		// The paper's demo (build rejects topologies but fig1): 1, +30 and
		// +31 sessions of 0.5 Mbit/s at 0, 15 and 35 s from B, B, A. A
		// viewer count N slices the same 31 Mbit/s into 1 + round(30·N/62)
		// + the rest.
		waves := flashcrowd.Fig2Schedule(0)
		if n := e.viewers; n > 0 {
			second := int(math.Round(30 * float64(n) / 62))
			waves = flashcrowd.Fig2Schedule(flashcrowd.DefaultVideoRate * 62 / float64(n))
			waves[1].Flows, waves[2].Flows = second, n-1-second
		}
		return nonEmptyWaves(waves), nil
	case "flash":
		// A persistent base plus a Poisson arrival burst with long mean
		// holds: demand ramps continuously instead of stepping.
		base := flashcrowd.Wave{At: 1 * time.Second, Ingress: e.primary, Flows: e.flowsFor(0.5), Rate: rate}
		window := duration*3/5 - 2*time.Second
		if window < 5*time.Second {
			window = 5 * time.Second
		}
		target := float64(e.flowsFor(1.2)) // arrivals wanted over the window
		arrivalRate := target / window.Seconds()
		waves := flashcrowd.PoissonWaves(e.primary, window, arrivalRate, 25*time.Second, rate, seed)
		for i := range waves {
			waves[i].At += 2 * time.Second
		}
		return append([]flashcrowd.Wave{base}, waves...), nil
	case "ramp":
		// Five equal steps every 2.5 s: a steady ramp to ~1.75x.
		var waves []flashcrowd.Wave
		for i := 0; i < 5; i++ {
			waves = append(waves, flashcrowd.Wave{
				At:      3*time.Second + time.Duration(i)*2500*time.Millisecond,
				Ingress: e.primary,
				Flows:   e.flowsFor(0.35),
				Rate:    rate,
			})
		}
		return waves, nil
	case "steady":
		// A fixed crowd sized to fit the surviving topology after a
		// single-link failure (0.8x the primary path's bottleneck): the
		// network sits comfortably below the alarm threshold before the
		// failure, so every stall measured afterwards is the failure's
		// fault. The failover cells use it to compare detection
		// pipelines without the 1.7x overload drowning the signal.
		return []flashcrowd.Wave{
			{At: 1 * time.Second, Ingress: e.primary, Flows: e.flowsFor(0.8), Rate: rate},
		}, nil
	case "skew":
		// Heterogeneous member density, the QoE cells' schedule: a large crowd of thin sessions at the primary ingress
		// and a handful of fat sessions at the secondary, each crowd worth
		// 1.1x its own path's bottleneck. Both default paths saturate on
		// their own, and since the total demand exceeds what any routing
		// can carry, some crowd must eat the shortfall — the choice
		// utilisation scoring is blind to. Max-min fair sharing starves
		// fat sessions before thin ones, so total stall time collapses
		// when the crowds share links and explodes when a link carries
		// thin sessions alone: the stall predictor sees the difference,
		// the max-utilisation score (pinned at saturation either way)
		// does not.
		thin, fat := 80, 5
		if e.viewers > 0 {
			fat = e.viewers / 16
			if fat < 2 {
				fat = 2
			}
			thin = e.viewers - fat
		}
		const crowd = 1.1 // each crowd's demand relative to its path
		waves := []flashcrowd.Wave{
			{At: 1 * time.Second, Ingress: e.primary, Flows: 1, Rate: crowd * e.pathCap / float64(thin)},
			{At: 5 * time.Second, Ingress: e.primary, Flows: thin - 1, Rate: crowd * e.pathCap / float64(thin)},
			{At: 8 * time.Second, Ingress: e.secondary, Flows: fat, Rate: crowd * e.pathCap / float64(fat)},
		}
		return nonEmptyWaves(waves), nil
	case "dual":
		// Both ingresses surge, as in Figure 1b: overlap is only
		// guaranteed on topologies like Fig1/Abilene where the two
		// shortest paths share links.
		return []flashcrowd.Wave{
			{At: 1 * time.Second, Ingress: e.primary, Flows: 1, Rate: rate},
			{At: 5 * time.Second, Ingress: e.primary, Flows: e.flowsFor(0.85), Rate: rate},
			{At: 12 * time.Second, Ingress: e.secondary, Flows: e.flowsFor(0.85), Rate: rate},
		}, nil
	default:
		return nil, fmt.Errorf("scenarios: unknown workload %q", kind)
	}
}

// nonEmptyWaves drops zero-flow waves (tiny explicit viewer counts can
// empty a surge step, and the Runner rejects empty waves).
func nonEmptyWaves(waves []flashcrowd.Wave) []flashcrowd.Wave {
	out := waves[:0]
	for _, w := range waves {
		if w.Flows > 0 {
			out = append(out, w)
		}
	}
	return out
}

// buildFailures produces the failure schedule of a kind, aimed at the
// primary ingress's shortest-path first hop.
func buildFailures(kind string, e *env, duration time.Duration) ([]FailureEvent, error) {
	switch kind {
	case "":
		return nil, nil
	case "hotlink":
		return []FailureEvent{{At: 14 * time.Second, A: e.hop1A, B: e.hop1B, Up: false}}, nil
	case "flap":
		return []FailureEvent{
			{At: 14 * time.Second, A: e.hop1A, B: e.hop1B, Up: false},
			{At: 19 * time.Second, A: e.hop1A, B: e.hop1B, Up: true},
		}, nil
	case "cascade":
		// Two correlated failures: the primary path's first hop, then —
		// once traffic has rerouted onto it — the backup path's first hop.
		// The second failover plans over a topology already missing the
		// first link, pinning paths the routers believe after one failure.
		a, b, ok := e.cascadeVictim()
		if !ok {
			return nil, fmt.Errorf("scenarios: no second path from %s survives losing %s-%s; cascade impossible",
				e.primary, e.hop1A, e.hop1B)
		}
		return []FailureEvent{
			{At: 14 * time.Second, A: e.hop1A, B: e.hop1B, Up: false},
			{At: 18 * time.Second, A: a, B: b, Up: false},
		}, nil
	default:
		return nil, fmt.Errorf("scenarios: unknown failure schedule %q", kind)
	}
}
