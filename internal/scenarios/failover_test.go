package scenarios

import (
	"encoding/json"
	"testing"
)

// TestFailoverInvariants runs every failover cell both ways (BFD vs
// SNMP-poll detection) and checks the 10x latency and stall-ratio
// invariants between them.
func TestFailoverInvariants(t *testing.T) {
	for _, spec := range FailoverSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c, err := CompareFailover(spec)
			if err != nil {
				t.Fatalf("CompareFailover: %v", err)
			}
			for _, v := range c.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				for _, r := range []*Report{c.Fast, c.Slow} {
					j, _ := json.MarshalIndent(r, "", "  ")
					t.Logf("%s report:\n%s", r.Scenario, j)
				}
			}
		})
	}
}
