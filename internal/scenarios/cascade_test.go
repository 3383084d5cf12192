package scenarios

import (
	"testing"

	"fibbing.net/fibbing/internal/spf"
)

// refCascadeVictim is the cascade victim search as buildEnv ran it for
// every cell: the reroute path over a clone without hop1, then one more
// clone per candidate link, kept if topo.Validate accepts it.
func refCascadeVictim(e *env) (a, b string, ok bool) {
	tp := e.tp
	src := tp.MustNode(e.primary)
	hop1, found := tp.FindLink(src, tp.MustNode(e.hop1B))
	if !found {
		return "", "", false
	}
	reduced := tp.CloneWithoutLinks(hop1.ID)
	rt := spf.Compute(spf.FromTopology(reduced), src, nil)
	rpaths := rt.Paths(e.attach, 1)
	if len(rpaths) == 0 || len(rpaths[0]) < 2 {
		return "", "", false
	}
	rp := rpaths[0]
	for i := 0; i+1 < len(rp); i++ {
		l, ok := reduced.FindLink(rp[i], rp[i+1])
		if !ok {
			continue
		}
		if reduced.CloneWithoutLinks(l.ID).Validate() == nil {
			return reduced.Name(rp[i]), reduced.Name(rp[i+1]), true
		}
	}
	return "", "", false
}

// TestCascadeVictimMatchesReference holds cascadeVictim's one search per
// candidate link to the clone-and-Validate search over every matrix,
// failover and scale topology and the population's drawn cells.
func TestCascadeVictimMatchesReference(t *testing.T) {
	t.Parallel()
	specs := append(append(append(MatrixSpecs(), FailoverSpecs()...), ScaleSpecs()...), drawCells(7, 400)...)
	seen := map[TopoSpec]bool{}
	var checked, skipped, none int
	for _, spec := range specs {
		spec = spec.withDefaults()
		if seen[spec.Topo] {
			continue
		}
		seen[spec.Topo] = true
		tp, prefix, err := spec.Topo.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		e, err := buildEnv(tp, prefix)
		if err != nil {
			continue // build rejects the cell before any schedule
		}
		a, b, ok := e.cascadeVictim()
		ra, rb, rok := refCascadeVictim(e)
		if a != ra || b != rb || ok != rok {
			t.Errorf("%s: victim %s-%s (%v), reference %s-%s (%v)", spec.Name, a, b, ok, ra, rb, rok)
		}
		checked++
		switch {
		case !ok:
			none++
		case a != e.primary:
			skipped++
		}
	}
	t.Logf("%d topologies: %d without a victim, %d past the reroute's first hop", checked, none, skipped)
	if none == 0 || skipped == 0 {
		t.Fatal("no topology exercised both the no-victim and the partition-skip branches")
	}
}
