// Package fibbing is a from-scratch Go reproduction of "Fibbing in
// action: On-demand load-balancing for better video delivery" (Tilmans,
// Vissicchio, Vanbever, Rexford — SIGCOMM 2016 demo), including every
// substrate the demo runs on: a link-state IGP with wire-encoded LSAs and
// reliable flooding, weighted-ECMP FIBs, a fluid data-plane simulator
// whose flows collapse into per-path-class aggregates (100k-viewer crowds
// cost what their distinct paths cost — see README.md, "The traffic
// plane"), an SNMPv2c monitoring stack, video streaming with QoE
// accounting, the traffic-engineering solvers (min-max LP, weight search,
// RSVP-TE/CSPF), and the Fibbing controller itself.
//
// The controller is a policy engine with a pluggable reaction-strategy
// API: on a raised alarm a Strategy proposes, a Plan is the typed
// proposal (per-prefix lie sets plus predicted max utilisation), and a
// southbound.Transaction commits the winner all-or-nothing. The Planner
// asks the registered strategies in registration order and scores them;
// the paper's congestion tiers are the stock strategies (local-ecmp,
// lp-optimal) and custom policies register via controller.New(...,
// WithStrategies(...)). Withdrawal, the failover pin and its revert are
// fixed controller reactions that run whatever set is registered. See
// README.md ("The reaction-strategy API").
//
// All traffic magnitudes are bit/s and the planning pipeline is
// scale-invariant: the LP is normalised by te.ProblemScale and every
// solver tolerance is relative, so Mbit/s and 100 Gbit/s versions of
// the same relative problem produce identical plans (README.md, "Units
// & numerics").
//
// The implementation lives under internal/; see README.md for the
// package map and how to run the examples, experiments and benchmarks,
// and docs/ARCHITECTURE.md for how the paper's concepts (fibbing lies,
// augmented topology, min-max LP, the reaction loop) map onto the
// packages and how data flows between them.
// cmd/experiments regenerates every figure of the paper, checked; the
// repository's benchmark is bench/ (BENCHMARK.json):
//
//	bash bench/run.sh
//
// Runnable entry points:
//
//	go run ./examples/quickstart     # topology -> requirement -> lies
//	go run ./examples/videodelivery  # the paper's Figure 2 demo as a scenario cell
//	go run ./examples/unevenlb       # uneven ECMP ratios on the wire
//	go run ./examples/flashcrowd     # Poisson crowd on a random network
//	go run ./cmd/experiments         # every figure/table, checked
//	go run ./cmd/fibsim              # analytic what-if for any topology
//	go run ./cmd/fibbingd            # live demo daemon with real SNMP/UDP
//	go run ./cmd/fiblab -matrix      # the scenario-matrix stress harness
//	go run ./cmd/fiblab -scale       # large-topology cells with cost telemetry
//	go run ./cmd/fiblab -topo fig1 -workload fig2 -duration 60s
package fibbing
