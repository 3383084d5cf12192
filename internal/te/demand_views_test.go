package te_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"fibbing.net/fibbing/internal/fibbing"
	"fibbing.net/fibbing/internal/scenarios"
	"fibbing.net/fibbing/internal/te"
	"fibbing.net/fibbing/internal/topo"
)

// TestDemandViewsMatchesFreshEvaluate holds te.DemandViews over one
// shared evaluator (the planner's path: a prefix without lies reads the
// evaluator's kept IGP view) to a fresh fibbing.Evaluate per prefix, on
// the matrix topologies with the walk zoo's demands, under no lies, under
// the lies the min-max LP's splits compile to (lp-optimal's overlay) and
// under no lies again. A set with a failing prefix must fail with fresh
// Evaluate's error for the first such prefix in demand order: a ghost
// prefix, and a lie aimed at another prefix.
func TestDemandViewsMatchesFreshEvaluate(t *testing.T) {
	moved := 0
	for _, c := range walkZoo(t)[:len(scenarios.MatrixTopologies())] {
		ev := fibbing.NewEvaluator(c.tp)
		opt, err := te.SolveMinMax(c.tp, c.demands)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		demanded := map[string]bool{}
		for _, d := range c.demands {
			demanded[d.PrefixName] = true
		}
		overlay := map[string][]fibbing.Lie{}
		for _, prefix := range slices.Sorted(maps.Keys(demanded)) {
			dag, err := fibbing.Requirement(c.tp, prefix, opt.Splits[prefix])
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, prefix, err)
			}
			aug, _, err := ev.Compile(prefix, dag)
			if err != nil {
				t.Fatalf("%s: %s: compile: %v", c.name, prefix, err)
			}
			overlay[prefix] = aug.Lies
		}
		for pass, lies := range []map[string][]fibbing.Lie{nil, overlay, nil} {
			got, err := te.DemandViews(ev, lies, c.demands)
			if err != nil {
				t.Fatalf("%s pass %d: %v", c.name, pass, err)
			}
			if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(demanded))) {
				t.Fatalf("%s pass %d: views for %v, demanded %v", c.name, pass, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(demanded)))
			}
			for prefix, views := range got {
				want, err := fibbing.Evaluate(c.tp, prefix, lies[prefix])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(views, want) {
					t.Fatalf("%s pass %d: %s: views\n got  %v\n want %v", c.name, pass, prefix, views, want)
				}
				if igp, _ := fibbing.IGPView(c.tp, prefix); !reflect.DeepEqual(want, igp) {
					moved++
				}
			}
		}

		// A ghost prefix after every real one and a second ghost after
		// it; then the first demand's prefix with one lie aimed at another
		// prefix, which fails before both ghosts.
		first := c.demands[0]
		ghosts := append(slices.Clone(c.demands),
			topo.Demand{Ingress: first.Ingress, PrefixName: "ghost", Volume: 1},
			topo.Demand{Ingress: first.Ingress, PrefixName: "ghost-2", Volume: 1})
		_, werr := fibbing.Evaluate(c.tp, "ghost", nil)
		if _, err := te.DemandViews(ev, overlay, ghosts); err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: ghost prefix: error %v, want %v", c.name, err, werr)
		}
		var other topo.Prefix
		for _, p := range c.tp.Prefixes() {
			if p.Name != first.PrefixName {
				other = p
			}
		}
		l := c.tp.Link(c.tp.OutLinks(first.Ingress)[0])
		bad := map[string][]fibbing.Lie{first.PrefixName: {{Prefix: other.Prefix, Attach: l.From, Via: l.To}}}
		_, werr = fibbing.Evaluate(c.tp, first.PrefixName, bad[first.PrefixName])
		if werr == nil {
			t.Fatalf("%s: a lie for %s under %s passed fresh Evaluate", c.name, other.Name, first.PrefixName)
		}
		if _, err := te.DemandViews(ev, bad, ghosts); err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: misdirected lie: error %v, want %v", c.name, err, werr)
		}
	}
	if moved == 0 {
		t.Fatal("no overlay moved a view off the IGP's; the lie path compares nothing")
	}
}
