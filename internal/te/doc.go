// Package te implements the traffic-engineering machinery surrounding
// Fibbing: the optimisation targets the controller's strategies realise
// with lies, and the baseline schemes the paper argues against.
//
// # The solver family
//
// The package contains five solvers; the planner and the experiments use
// each for a different job:
//
//   - The simplex (simplex.go) is the substrate: a primal simplex with
//     Bland's anti-cycling rule on one flat full tableau. The storage is
//     dense; the steps are not — reduced costs sum only over rows whose
//     basic variable has a cost, and a pivot touches only the pivot row's
//     non-zero columns. Its two-phase cold start (SolveLP, LPBuilder) is
//     test code (twophase_test.go): the node-link oracle solves with it,
//     and its pivot sequence is held bit for bit to the textbook dense
//     iteration (reference_test.go). Everything LP-shaped goes through
//     the one simplex; nothing else in the repository links an external
//     solver.
//   - SolveMinMax (minmax.go, colgen.go) is the paper's §2 optimum: the
//     min-max link-utilisation multicommodity-flow LP, solved in path
//     form by column generation. Each (prefix, ingress) commodity starts
//     on its IGP shortest path; the master adds a capacity row only for a
//     link some path uses and starts from a feasible crash basis, and
//     pricing is one Dijkstra per prefix under the dual link prices. Its
//     θ* is the arc-flow LP's, which reference_test.go keeps as the
//     oracle. Its Splits output is what fibbing.Requirement quantises
//     into a requirement DAG and fibbing.Evaluator.Compile turns into
//     verified lies: the one pipeline the lp-optimal strategy and
//     RealizeMinMax (fibsim, the experiments' tables) share. The
//     controller skips it above DefaultMaxLPRouters routers, where a
//     solve takes up to a minute.
//   - SolveGreedy (greedy.go) is the anytime middle ground: chunked
//     greedy path placement under a Fortz-Thorup congestion cost,
//     within tens of percent of the LP at a fraction of the cost. The
//     experiments use it to show the optimum is not an artifact of
//     solver sophistication.
//   - OptimizeWeights (weightopt.go) is the "traditional TE" baseline:
//     local search over IGP link weights. It exists to be slow and
//     disruptive — every weight change is a network-wide reconvergence
//     event — which is the paper's argument for Fibbing.
//   - PlaceTunnels (rsvpte.go) is the MPLS RSVP-TE baseline: CSPF
//     tunnel placement with explicit signalling/state/encapsulation
//     accounting, the control- and data-plane overhead §2 holds against
//     tunnels.
//
// LinkLoads/IGPLoads/LoadsWithLies (loads.go) propagate a demand set
// over route views to per-link bit/s loads — the shared evaluator under
// the planner's predictions and every experiment. They push volume over
// a fibbing.Walk, the graph the QoE predictor (qoe.PredictPlan) shares
// links over too; a router where paths merge sums its inputs in the same
// order on every call, so the loads are bit-identical across calls.
//
// # Numerical conditioning
//
// All volumes and capacities are bit/s, so production problems carry
// coefficients of 1e9-1e11. The package is scale-invariant by
// construction (see scale.go): SolveMinMax normalises every problem by
// ProblemScale (a power of two, so rescaling is exact) before building
// its master, and every tolerance in the solvers is relative —
// SolverRelTol against the magnitudes being compared (and, in the
// two-phase cold start the tests keep, FeasibilityRelTol against the
// right-hand side for the phase-1 feasibility verdict).
// Solving the same relative problem at 1 Mbit/s and 100 Gbit/s yields
// the same θ*, the same splits, and therefore the same lies.
package te
