package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"fibbing.net/fibbing/internal/event"
	"fibbing.net/fibbing/internal/fib"
	"fibbing.net/fibbing/internal/topo"
)

// multiLineTopo builds k disjoint two-node lines a{i} -(10M)- b{i} with one
// prefix attached at each b{i}. Traffic on different lines shares no link,
// so the incidence graph has exactly k connected components.
func multiLineTopo(k int) *topo.Topology {
	t := topo.New()
	for i := 0; i < k; i++ {
		a := t.AddNode(fmt.Sprintf("a%d", i))
		b := t.AddNode(fmt.Sprintf("b%d", i))
		t.AddLink(a, b, 1, topo.LinkOpts{Capacity: 10e6})
		t.AddPrefix(mustPfx(fmt.Sprintf("10.%d.0.0/16", 100+i)), fmt.Sprintf("p%d", i), topo.Attachment{Node: b})
	}
	return t
}

// multiLine is a network over multiLineTopo(k) with two greedy flows on
// each line, solved once.
type multiLine struct {
	tp    *topo.Topology
	sched *event.Scheduler
	net   *Network
	ids   [][]FlowID // by line
	port  uint16     // the last flow's source port
}

// runMultiLine drives k disjoint lines with two greedy flows each up to
// the first second.
func runMultiLine(t *testing.T, k int) *multiLine {
	t.Helper()
	tp := multiLineTopo(k)
	sched := event.NewScheduler()
	m := &multiLine{tp: tp, sched: sched, net: New(tp, sched, time.Second), ids: make([][]FlowID, k)}
	for i := 0; i < k; i++ {
		a, b := tp.MustNode(fmt.Sprintf("a%d", i)), tp.MustNode(fmt.Sprintf("b%d", i))
		l, _ := tp.FindLink(a, b)
		pfx := mustPfx(fmt.Sprintf("10.%d.0.0/16", 100+i))
		ta := fib.NewTable(a)
		tb := fib.NewTable(b)
		if err := ta.Install(fib.Route{Prefix: pfx, NextHops: []fib.NextHop{{Node: b, Link: l.ID, Weight: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Install(fib.Route{Prefix: pfx, Local: true}); err != nil {
			t.Fatal(err)
		}
		m.net.SetTable(a, ta)
		m.net.SetTable(b, tb)
		m.join(i)
		m.join(i)
	}
	sched.RunUntil(time.Second)
	return m
}

// join adds one greedy flow on the given line.
func (m *multiLine) join(line int) {
	m.port++
	dst := fmt.Sprintf("10.%d.0.1", 100+line)
	m.ids[line] = append(m.ids[line], m.net.AddFlow(m.tp.MustNode(fmt.Sprintf("a%d", line)), key(dst, m.port), 0))
}

// TestReshareComponents checks that disjoint traffic regions are solved as
// independent components, each gathered and solved once per reshare: the
// counters show one reshare per instant with one component per line it
// reached, full only when it reached every active line, and every flow
// gets its line's exact fair share while an unreached line's rates keep
// their bits.
func TestReshareComponents(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name string
		step func(m *multiLine)
		// The step's reshares, full and incremental, and the components
		// they solved; the lines it joins a flow on.
		full, incremental, components uint64
		joined                        []int
	}{
		{name: "first solve"},
		{
			name:        "three joins at one instant",
			step:        func(m *multiLine) { m.join(0); m.join(1); m.join(2) },
			incremental: 1, components: 3,
			joined: []int{0, 1, 2},
		},
		{
			name: "identical table",
			step: func(m *multiLine) {
				a := m.tp.MustNode("a0")
				m.net.SetTable(a, m.net.tables[a])
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := runMultiLine(t, k)
			before, rates := m.net.Stats(), m.rates()
			if tc.step == nil {
				// The first instant reaches every line: one full reshare.
				before, tc.full, tc.components = Stats{}, 1, k
			} else {
				tc.step(m)
				m.sched.RunUntil(2 * time.Second)
			}
			if err := m.net.VerifyMaxMin(1e-9); err != nil {
				t.Fatal(err)
			}
			got := m.net.Stats()
			if d := got.ReshareFull - before.ReshareFull; d != tc.full {
				t.Errorf("ReshareFull moved by %d, want %d", d, tc.full)
			}
			if d := got.ReshareIncremental - before.ReshareIncremental; d != tc.incremental {
				t.Errorf("ReshareIncremental moved by %d, want %d", d, tc.incremental)
			}
			if d := got.ReshareComponents - before.ReshareComponents; d != tc.components {
				t.Errorf("ReshareComponents moved by %d, want %d", d, tc.components)
			}
			for line, ids := range m.ids {
				want := 10e6 / float64(len(ids))
				for i, id := range ids {
					r := m.net.Flow(id).Rate()
					if r != want {
						t.Errorf("line %d flow %d rate = %v, want %v (%d greedy flows on a 10M line)", line, i, r, want, len(ids))
					}
					if !slices.Contains(tc.joined, line) && i < len(rates[line]) && r != rates[line][i] {
						t.Errorf("line %d flow %d rate moved %v -> %v, but no flow joined its line", line, i, rates[line][i], r)
					}
				}
			}
		})
	}
}

// rates returns every flow's rate, by line.
func (m *multiLine) rates() [][]float64 {
	out := make([][]float64, len(m.ids))
	for line, ids := range m.ids {
		for _, id := range ids {
			out[line] = append(out[line], m.net.Flow(id).Rate())
		}
	}
	return out
}
