package ospf

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/topo"
)

// convergedFatTree returns a fat-tree k=4 domain brought up by start
// (Start, or the flooded refFloodedStart) and converged, and one of its
// adjacencies: router a, its neighbor entry for b, and b.
func convergedFatTree(t testing.TB, start func(*Domain)) (d *Domain, a *Router, n *neighbor, b *Router) {
	t.Helper()
	tp := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	sched := event.NewScheduler()
	d = NewDomain(tp, sched, Config{})
	start(d)
	if _, err := d.RunUntilConverged(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, l := range tp.Links() {
		if !tp.Node(l.From).Host && !tp.Node(l.To).Host {
			a, b = d.Router(l.From), d.Router(l.To)
			return d, a, a.neighbor(b.id), b
		}
	}
	t.Fatal("fat-tree has no router link")
	return
}

// floodBudgetPerInstall is what one installation of a flooded instance may
// allocate, everything included. Measured on fat-tree k=4: 42 objects for
// 19 installs, 2.2 each — the decoded LSA and its link slice, and the
// debounced SPF run's bookkeeping; the 45 updates sent join their
// adjacency's retransmission ring, run by its one timer and pre-built
// body. One closure per update sent makes it 87 objects, 4.6 per
// install, and trips the guard.
const floodBudgetPerInstall = 3

// TestFloodingAllocations holds the per-packet path to its allocation
// contract on a converged fat-tree k=4: receptions that change nothing
// cost no heap objects, and a flood costs the routers that install it.
func TestFloodingAllocations(t *testing.T) {
	d, a, n, b := convergedFatTree(t, (*Domain).Start)
	sched := d.sched
	own, ok := b.db.Get(Key{Type: TypeRouter, AdvRouter: a.id})
	if !ok {
		t.Fatal("b does not hold a's router LSA")
	}
	settle := func() { sched.RunUntil(sched.Now() + 2*time.Millisecond) }

	// A duplicate: b checks it, judges it by its header and acks; the ack
	// travels back and a finds nothing to clear.
	dup := appendUpdateLSA(appendPacketHeader(nil, PktLSUpdate, a.id, 1), own.Encode())
	acksSent := b.PacketsSent
	if got := testing.AllocsPerRun(200, func() {
		b.HandlePacket(a.id, dup)
		settle()
	}); got != 0 {
		t.Errorf("duplicate update: %v objects per reception, want 0", got)
	}
	if b.PacketsSent-acksSent < 200 {
		t.Fatalf("duplicates were not acked: %d acks for 200 receptions", b.PacketsSent-acksSent)
	}

	ack := appendAck(appendPacketHeader(nil, PktLSAck, b.id, 1), own.Header)
	if got := testing.AllocsPerRun(200, func() { a.HandlePacket(b.id, ack) }); got != 0 {
		t.Errorf("ack: %v objects per reception, want 0", got)
	}

	// One packet end to end: onto the wire, one scheduler event, into the
	// receiver.
	ack = appendAck(appendPacketHeader(nil, PktLSAck, a.id, 1), own.Header)
	rcvd := b.PacketsRcvd
	if got := testing.AllocsPerRun(200, func() {
		d.deliver(n, append(d.getBuf(len(ack)), ack...))
		settle()
	}); got != 0 {
		t.Errorf("delivery: %v objects per packet, want 0", got)
	}
	if b.PacketsRcvd-rcvd < 200 {
		t.Fatalf("deliveries did not arrive: %d of 200", b.PacketsRcvd-rcvd)
	}

	// One full flood: a re-originates its Router LSA and every other
	// router installs the new instance exactly once.
	installs := float64(len(d.routers) - 1)
	got := testing.AllocsPerRun(20, func() {
		a.originateRouterLSA()
		if _, err := d.RunUntilConverged(sched.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("flood of one Router LSA: %.0f objects, %.1f per install", got, got/installs)
	if got > floodBudgetPerInstall*installs {
		t.Errorf("flood of one Router LSA: %.0f objects for %.0f installs, over the budget of %d per install",
			got, installs, floodBudgetPerInstall)
	}
	if len(d.Errors) > 0 {
		t.Fatalf("protocol errors: %v", d.Errors)
	}
}

// bootBudget is what NewDomain and Start may allocate on a fat-tree k=4
// (20 routers, 32 links between them). Measured at 639 objects once each
// router made its flush tombstone map at its first flush, not at boot;
// 659 when the domain started carving its routers, adjacencies, rings
// and packet buffers from slabs; 1258 before, with every adjacency's
// neighbor, map, closures and list growth its own objects.
const bootBudget = 660

// TestBootAllocations holds a domain's set-up to its budget: building
// and booting it allocates per router and per LSA, not per adjacency.
func TestBootAllocations(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	got := testing.AllocsPerRun(20, func() {
		NewDomain(tp, event.NewScheduler(), Config{}).Start()
	})
	t.Logf("NewDomain and Start on fat-tree k=4: %.0f objects", got)
	if got > bootBudget {
		t.Errorf("NewDomain and Start on fat-tree k=4: %.0f objects, over the budget of %d", got, bootBudget)
	}
}

// TestPacketBuffersDisjoint carves more packet buffers than one slab
// chunk holds: each has exactly the domain's buffer size as capacity, so
// a packet filling one leaves every other intact, and one that outgrows
// it is moved by append instead of running into the next.
func TestPacketBuffersDisjoint(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: 10e6, MaxWeight: 3, Seed: 2})
	d := NewDomain(tp, event.NewScheduler(), Config{})
	bufs := make([][]byte, d.bufChunk+2)
	for i := range bufs {
		b := d.getBuf(packetHeaderLen)
		if len(b) != 0 || cap(b) != d.bufSize {
			t.Fatalf("buffer %d: len %d cap %d, want 0 and %d", i, len(b), cap(b), d.bufSize)
		}
		bufs[i] = append(b, bytes.Repeat([]byte{byte(i)}, d.bufSize)...)
	}
	grown := append(bufs[0], 0xff)
	for i, b := range bufs {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, d.bufSize)) {
			t.Fatalf("buffer %d was overwritten by another", i)
		}
	}
	if &grown[0] == &bufs[0][0] {
		t.Fatal("a packet outgrowing its buffer was appended in place")
	}
}

// TestDuplicateAcksFollowTable19 holds the ack a duplicate update draws
// to RFC 2328 §13.5, Table 19, on a converged fat-tree k=4: a duplicate
// that was an implied ack of the very instance pending towards its sender
// draws no ack, any other duplicate does. Each case then converges with
// nothing left to retransmit.
func TestDuplicateAcksFollowTable19(t *testing.T) {
	key := func(a *Router) Key { return Key{Type: TypeRouter, AdvRouter: a.id} }
	// converge runs d to convergence and requires every list between a
	// and b to be empty, with no protocol error on the way.
	converge := func(t *testing.T, d *Domain, n, ba *neighbor) {
		t.Helper()
		if _, err := d.RunUntilConverged(d.sched.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
		for _, nb := range [2]*neighbor{n, ba} {
			if nb.listed != 0 || nb.rxmt.Len() != 0 || nb.rxmtTimer.Scheduled() {
				t.Fatalf("after convergence %d listed, %d ring entries, timer armed %v",
					nb.listed, nb.rxmt.Len(), nb.rxmtTimer.Scheduled())
			}
		}
		if len(d.Errors) > 0 {
			t.Fatalf("protocol errors: %v", d.Errors)
		}
	}

	t.Run("crossing copy of the pending instance", func(t *testing.T) {
		// a and b send each other a's Router LSA at once, so each lists
		// the instance towards the other and receives the other's copy
		// as a duplicate: both copies are implied acks and no ack is sent.
		d, a, n, b := convergedFatTree(t, (*Domain).Start)
		ba := b.neighbor(a.id)
		mine, _ := a.db.Get(key(a))
		theirs, _ := b.db.Get(key(a))
		a.sendUpdate(n, mine)
		b.sendUpdate(ba, theirs)
		sentA, sentB := a.PacketsSent, b.PacketsSent
		converge(t, d, n, ba)
		if a.PacketsSent != sentA || b.PacketsSent != sentB {
			t.Errorf("the crossing drew %d acks from a and %d from b, want none",
				a.PacketsSent-sentA, b.PacketsSent-sentB)
		}
	})

	for _, tc := range []struct {
		name  string
		older bool // b lists an older instance of the key towards a first
	}{
		{name: "nothing pending"},
		{name: "only an older instance pending", older: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, a, n, b := convergedFatTree(t, (*Domain).Start)
			ba := b.neighbor(a.id)
			own, _ := b.db.Get(key(a))
			if tc.older {
				l := own.Clone()
				l.Header.Seq--
				b.sendUpdate(ba, l)
			}
			sent := b.PacketsSent
			b.HandlePacket(a.id, appendUpdateLSA(appendPacketHeader(nil, PktLSUpdate, a.id, 1), own.Encode()))
			if got := b.PacketsSent - sent; got != 1 {
				t.Errorf("the duplicate drew %d acks, want 1", got)
			}
			if _, listed := listedTo(ba, key(a)); listed {
				t.Errorf("b still lists the key towards a after the duplicate")
			}
			converge(t, d, n, ba)
		})
	}
}

// TestInFlightPacketsAndLinkState pins the transport semantics of the
// per-adjacency in-flight queue: packets on the wire when the link fails
// are dropped on arrival and their buffers recycled, packets sent while it
// is down never enter the queue, and a healed link delivers in send order.
// It converges by flooding (the flooded reference start), so the buffer
// pool holds the boot flood's buffers and every probe is a recycled one.
func TestInFlightPacketsAndLinkState(t *testing.T) {
	d, a, n, b := convergedFatTree(t, refFloodedStart)
	sched := d.sched
	// Packets of unknown types 100, 101, …: the receiver rejects each with
	// an error naming the type, which makes arrival order observable.
	probe := func(i int) []byte {
		return appendPacketHeader(d.getBuf(packetHeaderLen), PacketType(100+i), a.id, 0)
	}
	const k = 6 // past the queue's first allocation of 4

	for i := 0; i < k; i++ {
		a.transmit(n, probe(i))
	}
	if n.wire.Len() != k || d.inflight != k {
		t.Fatalf("%d queued, %d in flight, want %d", n.wire.Len(), d.inflight, k)
	}
	if err := d.SetLinkState(a.node, b.node, false); err != nil {
		t.Fatal(err)
	}
	pooled, rcvd := len(d.bufPool), b.PacketsRcvd
	a.transmit(n, probe(k)) // dropped at the sender: the link is down
	if n.wire.Len() != k {
		t.Fatalf("packet sent on a failed link was queued")
	}
	sched.RunUntil(sched.Now() + 2*time.Millisecond)
	if n.wire.Len() != 0 || d.inflight != 0 {
		t.Fatalf("after the delay: %d queued, %d in flight, want none", n.wire.Len(), d.inflight)
	}
	if len(d.Errors) != 0 || b.PacketsRcvd != rcvd {
		t.Fatalf("packets crossed a failed link: %v", d.Errors)
	}
	if got := len(d.bufPool) - pooled; got != k {
		t.Fatalf("%d buffers recycled, want %d", got, k)
	}

	if err := d.SetLinkState(a.node, b.node, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		a.transmit(n, probe(i))
		if i == k/2 {
			// Part of the burst arrives before the rest is sent, so the
			// queue's head is mid-buffer when it next wraps.
			sched.RunUntil(sched.Now() + 2*time.Millisecond)
		}
	}
	sched.RunUntil(sched.Now() + 2*time.Millisecond)
	if len(d.Errors) != k {
		t.Fatalf("%d packets arrived after the heal, want %d: %v", len(d.Errors), k, d.Errors)
	}
	for i, err := range d.Errors {
		want := fmt.Sprintf("router %d: ospf: unknown packet type %d", b.id, 100+i)
		if err.Error() != want {
			t.Fatalf("arrival %d: %q, want %q", i, err, want)
		}
	}
}
