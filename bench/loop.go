package main

// The loop-matrix workload: the whole reaction loop over the cells
// fiblab -matrix/-failover/-qoe users run.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/scenarios"
)

// loopSpecs is the loop-matrix cell list: the 18 matrix cells, the three
// failover cells (BFD + standby cache), and the two small skew cells
// under QoE scoring. The seed shifts every cell's workload seed (Poisson
// arrival draws of the flash cells, BFD hello jitter); topology
// generator seeds stay pinned, because the matrix pins them to values
// under which plain IGP routing saturates.
func loopSpecs(seed int64) []scenarios.Spec {
	specs := append(scenarios.MatrixSpecs(), scenarios.FailoverSpecs()...)
	for _, s := range scenarios.QoESpecs()[:2] {
		s.ScoreMode = "qoe"
		s.Name += "@qoe"
		specs = append(specs, s)
	}
	for i := range specs {
		specs[i].Seed += seed - 1
	}
	return specs
}

// loopFixture runs a list of scenario cells, controller on. Every op
// builds each cell's simulation from nothing, as fiblab does.
type loopFixture struct {
	specs []scenarios.Spec
	// reports holds the last op's reports for the traced run's counters.
	reports []*scenarios.Report
	// marks and lastSim are what the last traced pass observed.
	marks   []simMarks
	lastSim *controller.Sim
}

func buildLoop(seed int64) (fixture, error) {
	f := &loopFixture{specs: loopSpecs(seed)}
	// Building each topology validates the generated inputs before any
	// op is timed.
	for _, s := range f.specs {
		if _, _, err := s.Topo.Build(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return f, nil
}

func (f *loopFixture) op(tick func()) (outcome, error) {
	var out outcome
	h := sha256.New()
	f.reports = f.reports[:0]
	var (
		utilSum, gapSum, reactSum, failSum  float64
		utilN, gapN, reactN, failN, decided int
	)
	for _, spec := range f.specs {
		rep, err := scenarios.Run(spec, true)
		if err != nil {
			return out, err
		}
		if len(rep.ControllerErrors) > 0 || len(rep.ProtocolErrors) > 0 {
			return out, fmt.Errorf("%s: controller errors %v, protocol errors %v",
				spec.Name, rep.ControllerErrors, rep.ProtocolErrors)
		}
		tick()
		f.reports = append(f.reports, rep)
		h.Write(scrubbedJSON(rep))
		out.lies += float64(rep.Lies)
		out.stallS += rep.StallSeconds
		out.predStallS += rep.PredictedStallSeconds
		decided += len(rep.Decisions)
		if rep.AnalyticUtilisation > 0 {
			utilSum += rep.AnalyticUtilisation
			utilN++
			if rep.LPOptimum > 0 {
				gapSum += max(0, rep.AnalyticUtilisation/rep.LPOptimum-1) // the LP is a lower bound; below it is rounding
				gapN++
			}
		}
		if rep.ReactionLatency >= 0 {
			reactSum += ms(rep.ReactionLatency)
			reactN++
		}
		if spec.BFD && rep.FailoverLatency >= 0 {
			failSum += ms(rep.FailoverLatency)
			failN++
		}
	}
	if decided == 0 {
		return out, fmt.Errorf("the controller never committed a plan")
	}
	out.util = ratio(utilSum, float64(utilN))
	out.utilGap = ratio(gapSum, float64(gapN))
	out.reactMs = ratio(reactSum, float64(reactN))
	out.failoverMs = ratio(failSum, float64(failN))
	h.Sum(out.digest[:0])
	return out, nil
}

// scrubbedJSON encodes a report without the fields that legitimately
// differ between two runs of the same cell: wall-clock, the pool width,
// and the plan-cache hit counter (which can move by one when two
// strategies race on a key on more than one core).
func scrubbedJSON(rep *scenarios.Report) []byte {
	cp := *rep
	cp.Workers = 0
	cp.PlanCacheHits = 0
	cp.StrategyPerf = make(map[string]controller.StrategyPerf, len(rep.StrategyPerf))
	for name, sp := range rep.StrategyPerf {
		sp.Nanos = 0
		cp.StrategyPerf[name] = sp
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		panic(err) // a Report holds only encodable fields
	}
	return b
}
