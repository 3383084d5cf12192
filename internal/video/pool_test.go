package video

import (
	"testing"
	"time"

	"fibbing.net/fibbing/internal/netsim"
)

// TestSessionPoolMatchesStandaloneSessions attaches every flow of a
// congested link twice — to a SessionPool (one batched read per tick) and
// to a standalone SimSession (one read per session per tick) — and
// requires identical QoE through flows finishing, sessions stopping and
// late joiners: the batched read is the same poll, taken once.
func TestSessionPoolMatchesStandaloneSessions(t *testing.T) {
	sched, net, abr := abrRig(t, 2e6) // 2 Mbit/s under 8 x 500 kbit/s: everybody stalls
	abr.Stop()
	a := net.Topology().MustNode("a")
	pool := NewSessionPool(sched, net, 0)
	type pair struct {
		flow         netsim.FlowID
		pooled, solo *SimSession
	}
	var pairs []pair
	join := func(port uint16) {
		key := abrKey
		key.SrcPort = port
		id := net.AddFlow(a, key, 500e3)
		pairs = append(pairs, pair{id, pool.Attach(id, 500e3), NewSimSession(sched, net, id, 500e3, 0)})
	}
	for port := uint16(100); port < 108; port++ {
		join(port)
	}
	sched.RunUntil(10 * time.Second)
	net.RemoveFlow(pairs[0].flow) // a finished flow: both sessions keep playing out, uncredited
	pairs[1].pooled.Stop()        // a viewer who left: compacted out of the pool
	pairs[1].solo.Stop()
	sched.RunUntil(20 * time.Second)
	if got := pool.Len(); got != 7 {
		t.Fatalf("pool ticks %d sessions after one stopped, want 7", got)
	}
	join(200) // a late joiner lands in the same tick cadence
	sched.RunUntil(40 * time.Second)

	stalled := false
	for i, p := range pairs {
		if p.pooled.QoE() != p.solo.QoE() {
			t.Fatalf("session %d: pooled %+v, standalone %+v", i, p.pooled.QoE(), p.solo.QoE())
		}
		stalled = stalled || p.pooled.QoE().Stalls > 0
	}
	if !stalled {
		t.Fatal("nobody stalled: the link is not congested and the comparison shows nothing")
	}
}
