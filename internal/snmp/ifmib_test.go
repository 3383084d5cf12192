package snmp

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/netsim"
	"fibbing.net/fibbing/internal/topo"
)

// ifmibZoo is the matrix and failover topology zoo, built as the scenario
// harness builds it (which this package cannot import), plus fat-tree
// k=8 and Figure 1 with its stub hosts.
func ifmibZoo() map[string]*topo.Topology {
	const capacity = 10e6
	return map[string]*topo.Topology{
		"fig1":       topo.Fig1(topo.Fig1Opts{}),
		"fig1+hosts": topo.Fig1(topo.Fig1Opts{WithHosts: true}),
		"abilene":    topo.Abilene(capacity, time.Millisecond),
		"fattree4":   topo.FatTree(topo.FatTreeOpts{K: 4, Capacity: capacity, MaxWeight: 3, Seed: 2}),
		"fattree8":   topo.FatTree(topo.FatTreeOpts{K: 8, Capacity: capacity, MaxWeight: 3, Seed: 2}),
		"ring9":      topo.Ring(topo.RingOpts{N: 9, Capacity: capacity}),
		"waxman16":   topo.Waxman(topo.WaxmanOpts{Nodes: 16, Capacity: capacity, MaxWeight: 5, Seed: 13}),
		"random12": topo.RandomConnected(topo.RandomOpts{
			Nodes: 12, Degree: 3, MaxWeight: 5, Prefixes: 2, Capacity: capacity, Seed: 3,
		}),
	}
}

// wrappedNetwork runs a flow at full rate over the first capacitated link
// of tp until its octet counter is past 2^32, so that ifOutOctets has
// wrapped.
func wrappedNetwork(t *testing.T, tp *topo.Topology) *netsim.Network {
	t.Helper()
	var l topo.Link
	for id := range tp.NumLinks() {
		if l = tp.Link(topo.LinkID(id)); l.Capacity > 0 {
			break
		}
	}
	sched := event.NewScheduler()
	net := netsim.New(tp, sched, time.Minute)
	pfx := netip.MustParsePrefix("10.200.0.0/16")
	for _, hop := range []struct {
		at    topo.NodeID
		route fib.Route
	}{
		{l.From, fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: l.To, Link: l.ID, Weight: 1}}}},
		{l.To, fib.Route{Prefix: pfx, Local: true}},
	} {
		tbl := fib.NewTable(hop.at)
		if err := tbl.Install(hop.route); err != nil {
			t.Fatal(err)
		}
		net.SetTable(hop.at, tbl)
	}
	net.AddFlow(l.From, fib.FlowKey{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.200.0.1"),
		SrcPort: 1, DstPort: 80, Proto: 6,
	}, l.Capacity)
	wrapAt := time.Duration(float64(1<<32+1<<24) * 8 / l.Capacity * float64(time.Second))
	sched.RunUntil(wrapAt)
	if got := net.Octets(l.ID); got <= 1<<32 {
		t.Fatalf("link %d carried %d octets by %v, want past 2^32", l.ID, got, wrapAt)
	}
	return net
}

// twinTransport hands every request to both agents and fails the test
// unless their encoded responses are byte-identical.
type twinTransport struct {
	t        *testing.T
	got, ref *Agent
	label    string
}

func (tw twinTransport) RoundTrip(req []byte) ([]byte, error) {
	want := tw.ref.HandleRequest(req)
	got := tw.got.HandleRequest(req)
	if !bytes.Equal(got, want) {
		m, _ := DecodeMessage(req)
		tw.t.Fatalf("%s: request %+v: response\n%x\nreference\n%x", tw.label, m.PDU, got, want)
	}
	return got, nil
}

// TestBindIFMIBMatchesReference: over the matrix and failover topologies
// and fat-tree k=8, after one link's octets passed 2^32, BindIFMIB and
// refBindIFMIB give the same table, for the network-wide agent and for
// every node's own, each OID capped at its length. Every OID reads the
// same value in process, and a Walk from mib-2, a BulkWalk and a GET of
// every OID get byte-identical responses from the two agents. ~0.06 s,
// parallel.
func TestBindIFMIBMatchesReference(t *testing.T) {
	t.Parallel()
	mib2 := MustOID("1.3.6.1.2.1")
	for name, tp := range ifmibZoo() {
		net := wrappedNetwork(t, tp)
		nodes := []topo.NodeID{topo.NoNode}
		for id := range tp.NumNodes() {
			nodes = append(nodes, topo.NodeID(id))
		}
		for _, node := range nodes {
			label := name + "/" + tp.Name(node)
			got, ref := NewMIB(), NewMIB()
			BindIFMIB(got, net, node)
			refBindIFMIB(ref, net, node)
			if !reflect.DeepEqual(got.oids, ref.oids) {
				t.Fatalf("%s: OIDs %v, reference %v", label, got.oids, ref.oids)
			}
			for _, oid := range got.oids {
				if cap(oid) != len(oid) {
					t.Fatalf("%s: %v has room past its end (len %d, cap %d)", label, oid, len(oid), cap(oid))
				}
			}
			for _, oid := range ref.oids {
				g, gok := got.Get(oid)
				w, wok := ref.Get(oid)
				if gok != wok || !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %v reads %+v (%v), reference %+v (%v)", label, oid, g, gok, w, wok)
				}
			}
			client := NewClient(twinTransport{t: t, got: NewAgent("c", got), ref: NewAgent("c", ref), label: label}, "c")
			walked, bulked := 0, 0
			if err := client.Walk(mib2, func(VarBind) error { walked++; return nil }); err != nil {
				t.Fatalf("%s: walk: %v", label, err)
			}
			if err := client.BulkWalk(mib2, 16, func(VarBind) error { bulked++; return nil }); err != nil {
				t.Fatalf("%s: bulk walk: %v", label, err)
			}
			if walked != ref.Len() || bulked != ref.Len() {
				t.Fatalf("%s: walk saw %d objects, bulk walk %d, want %d", label, walked, bulked, ref.Len())
			}
			for lo := 0; lo < len(ref.oids); lo += getChunk {
				if _, err := client.Get(ref.oids[lo:min(lo+getChunk, len(ref.oids))]...); err != nil {
					t.Fatalf("%s: get: %v", label, err)
				}
			}
		}
	}
}
