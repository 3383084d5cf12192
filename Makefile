# Developer entry points. Everything is stdlib Go; no tool downloads.

GO ?= go

.PHONY: all build test race vet fuzz mutants goldens matrix failover qoe quickstart bench-e2e bench-check pairs profile scale cover docs-check

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short fuzz passes over the BER decoder (against the reference decoder
# its tests keep), the prepared counter poll (arbitrary responses to the
# client and requests to the agent, against the whole-message poll its
# tests keep), the topology parser, the analytic QoE session
# predictor, the simplex core (against the dense reference solver its
# tests keep), the min-max LP's column generation (against the node-link
# LP its tests keep), the IGP's wire codec (a live router fed arbitrary bytes,
# against the one-pass reference decoder), the FIB's path-compressed
# trie (operation sequences over clone families, against the one-bit trie
# its tests keep), the event queue's same-instant chains
# (At/Cancel/Step programs, against the container/heap queue its tests
# keep), the data plane's per-route classifier (FIB, link and weight
# programs over the topology zoo, against the WalkTrace walk its tests
# keep), the compiled forwarding walk under link loads, the QoE
# predictor and the delivery check (arbitrary view sets on up to 8
# nodes, against the map walks its tests keep, and the predictor's
# values against the exact max-min reference), the quiet BFD engine
# (fail/heal programs on up to 6 routers, against the event-driven
# engine its tests keep), the IGP's synced start (change programs on
# up to 8 routers with 0-3 ms links, against the flooded start its tests
# keep) and the data plane's kept readings (join, leave, cap, FIB and
# link programs over the topology zoo, against the per-call sums its
# tests keep) and the full SPF run (graphs with parallel links,
# zero-weight edges, weights at the overflow guard and skip sets, against
# the append-grown Compute its tests keep).
fuzz:
	$(GO) test -fuzz='^FuzzDecodeMessage$$' -fuzztime=30s ./internal/snmp
	$(GO) test -fuzz='^FuzzPreparedPoll$$' -fuzztime=30s ./internal/snmp
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/topo
	$(GO) test -fuzz='^FuzzPredictSession$$' -fuzztime=30s ./internal/qoe
	$(GO) test -fuzz='^FuzzSolveLP$$' -fuzztime=30s ./internal/te
	$(GO) test -fuzz='^FuzzMinMax$$' -fuzztime=30s ./internal/te
	$(GO) test -fuzz='^FuzzHandlePacket$$' -fuzztime=30s ./internal/ospf
	$(GO) test -fuzz='^FuzzTable$$' -fuzztime=30s ./internal/lpm
	$(GO) test -fuzz='^FuzzScheduler$$' -fuzztime=30s ./internal/event
	$(GO) test -fuzz='^FuzzResolvedTrace$$' -fuzztime=30s ./internal/netsim
	$(GO) test -fuzz='^FuzzForwardingWalk$$' -fuzztime=30s ./internal/te
	$(GO) test -fuzz='^FuzzQuietBFD$$' -fuzztime=30s ./internal/bfd
	$(GO) test -fuzz='^FuzzSyncedStart$$' -fuzztime=30s ./internal/ospf
	$(GO) test -fuzz='^FuzzReadings$$' -fuzztime=30s ./internal/netsim
	$(GO) test -fuzz='^FuzzCompute$$' -fuzztime=30s ./internal/spf

# The mutation check: every mutant in testdata/mutants.txt (a file, a
# snippet in it, its replacement, the test that must fail) is compiled
# through `go test -overlay` and must fail its test. A survivor, a snippet
# that no longer matches and a mutant that does not compile all fail the
# run. The build tag keeps mutants_test.go out of `go test ./...`.
mutants:
	$(GO) test -tags mutants -run '^TestMutants$$' -count=1 -v .

# Rewrite every golden file from this tree; `git diff` is the record of what moved.
# internal/scenarios' golden is the drawn population's verdicts (400
# draws on both arms under the safety oracle; ~2.4 s on a 2-vCPU host).
# Then hold the rewritten goldens to the hand-edited paper-number ledger
# (cmd/fiblab/testdata/ledger.txt, which -update never writes): a figure
# that got worse fails here by its ledger line, and -v prints the totals.
goldens:
	$(GO) test -run TestGolden -count=1 ./cmd/... ./examples/... ./internal/scenarios -update
	$(GO) test -run TestPaperLedger -count=1 -v ./cmd/fiblab

# The scenario-matrix stress harness, printed as text. `go test
# ./cmd/fiblab` holds this mode, -failover and -qoe to their exit status
# and to the scrubbed JSON in cmd/fiblab/testdata/ (-update rewrites it).
matrix:
	$(GO) run ./cmd/fiblab -matrix

# The fast-failover cells: BFD vs SNMP-poll twins with 10x
# failure-to-commit latency and stall-ratio invariants.
failover:
	$(GO) run ./cmd/fiblab -failover

# The QoE cells: each skew cell, where every routing saturates, runs
# controller on and off, and the controller run must stall at least 1 s
# less than plain IGP (lies only on the crowd prefix).
qoe:
	$(GO) run ./cmd/fiblab -qoe

# Quickstart exercises the public API end to end; `go test
# ./examples/quickstart` holds its output to testdata/out.txt.
quickstart:
	$(GO) run ./examples/quickstart

# The repository's benchmark (BENCHMARK.json): five closed-loop workloads,
# host-corrected and round-sampled, built from bench/ into .bench_build/.
# This is the ruler for performance claims; pass arguments through ARGS,
# e.g. `make bench-e2e ARGS="--workload plan-cold --trace 1"`.
bench-e2e:
	bash bench/run.sh $(ARGS)

# The benchmark's own vet and tests. bench/ is its own Go module, so the
# root `./...` patterns never reach it.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# Alternating pairs of the benchmark at BASE against the working tree:
# `make pairs BASE=<rev>` (WORKLOAD, PAIRS, RUN_SECONDS and SEED — a
# number, or `vary` for seed i on pair i — default to loop-matrix, 10, 8
# and 1; not SECONDS, which is the name of bash's own clock).
# Odd pairs run BASE first. Prints per end-to-end metric both medians,
# both interquartile ranges, the working tree's wins out of the pairs and
# the median's move, with nproc, GOMAXPROCS and the Go version; writes
# only under .bench_build/ (the runs and table.txt under pairs/, the build
# cache under gocache/ and tmp/).
WORKLOAD ?= loop-matrix
PAIRS ?= 10
RUN_SECONDS ?= 8
SEED ?= 1
pairs:
	@test -n "$(BASE)" || { echo "pairs: set BASE=<rev>" >&2; exit 2; }
	bash tools/pairs.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(RUN_SECONDS)" "$(SEED)"

# A fresh CPU and allocation profile of the matrix cells, to order the
# sites a performance change starts from. TestScenarioMatrix and
# TestFailoverInvariants run 21 of the loop-matrix workload's 23 cells
# (all but its two @qoe cells), 60 passes, under go test's own
# -cpuprofile and -memprofile. They also run every cell's controller-off
# twin and the safety oracle, so the profile orders the sites but does
# not size them: size a site with bench-e2e. Writes the test binary and
# both profiles under .bench_build/profile/ and prints the top of each
# (-top -cum): the CPU one, and the memory one twice, by bytes and by
# objects allocated. The byte view hides sites that are small but
# numerous, such as a trie node per route.
PROFILE_DIR = .bench_build/profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^(TestScenarioMatrix|TestFailoverInvariants)$$' -count=60 \
	  -o $(PROFILE_DIR)/scenarios.test -outputdir $(CURDIR)/$(PROFILE_DIR) \
	  -cpuprofile cpu.out -memprofile mem.out ./internal/scenarios
	$(GO) tool pprof -top -cum $(PROFILE_DIR)/scenarios.test $(PROFILE_DIR)/cpu.out | head -40
	$(GO) tool pprof -top -cum -sample_index=alloc_space $(PROFILE_DIR)/scenarios.test $(PROFILE_DIR)/mem.out | head -40
	$(GO) tool pprof -top -cum -sample_index=alloc_objects $(PROFILE_DIR)/scenarios.test $(PROFILE_DIR)/mem.out | head -40

# The large-topology scaling cells with wall-clock/event telemetry
# (Gbit-capacity defaults; override with -capacity via `go run`).
scale:
	$(GO) run ./cmd/fiblab -scale

# Per-package statement coverage with CI-failing floors on the packages
# whose correctness rests on analytic claims rather than exercised
# plumbing: internal/qoe (the stall predictor the planner trusts),
# internal/controller (admissibility and scoring), and internal/spf and
# internal/ospf (the incremental SPF and the delta pipeline, whose trees
# and routes must equal a from-scratch recompute). Measured when the
# standby-plan cache and its tests were deleted: 92.6% for internal/qoe
# and 85.7% for internal/controller. The floors sit 2.6 and 2.7 points
# under that: dropping artifacts_test.go alone takes internal/controller
# to 79.7%. Measured when SPF runs started reusing the replaced tree:
# 96.6% for internal/spf and 91.8% for internal/ospf (96.0% and 91.5%
# before); their floors sit 2.5 points under. Also floored, each held to
# a kept reference: internal/lpm (the path-compressed FIB trie, against
# the one-bit trie), internal/video (the session pool's shared players,
# against standalone sessions) and internal/netsim (the aggregate plane,
# against the per-flow max-min solve). Measured when those three changes
# landed: 98.5%, 89.0% and 93.7% (97.8%, 86.6% and 93.6% before);
# floors 2.5 points under. Measured when lie reduction went incremental
# and pricing started skipping basic columns: 94.5% for internal/fibbing
# (the evaluator and the incremental ReduceLies, against the
# per-router-Dijkstra Reference* pipeline that re-evaluates every router
# on every trial) and 89.3% for internal/te; 93.9% and 88.8% before.
# Floors 2.5 points under. internal/te measured 91.6% when the min-max
# LP moved to column generation (the sparse simplex against the dense
# refSolveLP, the column generation against the node-link LP); its
# floor is unchanged. internal/event (the scheduler every simulation
# runs on, its same-instant chains held to the container/heap queue)
# measured 97.1% when same-instant events started sharing a heap entry;
# floor 2.5 points under. Measured when the data plane started
# classifying per route (resolved forwarding entries, held to the
# WalkTrace walk): 94.2% for internal/netsim and 98.6% for internal/lpm
# (93.7% and 98.5% before); floors raised to 2.5 points under. Measured
# when link loads and the QoE predictor moved onto one compiled
# forwarding walk (held to the map walks): 91.9% for internal/te, 92.3%
# for internal/qoe and 95.2% for internal/fibbing (91.6%, 92.6% and
# 94.5% before); floors unchanged. Measured when topo started rejecting
# parallel links and netsim's weight-flip resync went: 93.3% for
# internal/topo (unfloored), 94.2% for internal/netsim, 95.2% for
# internal/fibbing and 96.6% for internal/spf (93.1%, 94.2%, 95.0-95.2%
# and 96.6% before; fibbing's random tests move it a few tenths);
# floors unchanged. Measured when the ksp strategy was deleted and
# local-ecmp took loop-free alternates under QoE scoring: 84.9% for
# internal/controller (85.4% before); floor unchanged. Measured when the
# locks no second goroutine took were deleted: 84.7% for
# internal/controller, 93.8% for internal/netsim and 95.2% for
# internal/fibbing (85.2%, 94.2% and 95.5% before: the deleted lock calls
# were covered statements); floors unchanged. Measured when the
# splits-to-lies compile moved into internal/fibbing and the two-phase
# simplex into internal/te's test code: 95.6% for internal/fibbing, 92.6%
# for internal/te and 84.8% for internal/controller (95.2%, 92.3% and
# 84.7% before); floors unchanged. Measured when lp-optimal's compiled
# overlay and local-ecmp's verified spread became one memo lookup each:
# 85.0% for internal/controller and 95.6% for internal/fibbing (84.8%
# and 95.6% before); floors unchanged. Measured when withdrawal and the
# failover pin left the strategy portfolio and became fixed controller
# reactions: 84.5% for internal/controller (85.0% before: the deleted
# withdraw strategy's statements were all covered); floor unchanged.
# Measured when OSPF retransmission moved to one timer per adjacency and
# crossing duplicates stopped drawing acks: 92.1% for internal/ospf at
# GOMAXPROCS 1, 2, 4 and 8 (91.9% before; the timer body's
# down-adjacency, stale-entry, re-arm and resend branches all covered);
# floor raised to the measured value. Measured when the detection plane's
# unset knobs became constants (the poller's, BFD's and OSPF's timers and
# thresholds; BFD's self-negotiation deleted): 98.6% for internal/monitor
# and 91.5% for internal/bfd (97.6% and 92.0% before: the deleted
# negotiation was covered), now floored at those values; internal/ospf
# 92.2% (92.1% before, 92.0% with the covered defaults deleted and no new
# test; the age sweep's tombstone pruning is now tested), floor
# unchanged. All three measured at GOMAXPROCS 1, 2, 4 and 8. Measured
# when the node-link sweep gave way to the kernel-vs-reference test on
# the column-generation masters: 92.6% for internal/te (92.6% before);
# floor unchanged. Measured when every reaction became one Reaction
# record committed by Handle alone (the failover path's unreached
# planning fallback deleted; the heal's hottest-link round tested):
# 88.1% for internal/controller at GOMAXPROCS 1, 2, 4 and 8 (84.4%
# before); floor raised to the measured value. Measured when established
# BFD sessions went quiet (no hello events on a live link, replayed on a
# link change; held to the event-driven engine kept in its tests): 97.1%
# for internal/bfd at GOMAXPROCS 1, 2, 4 and 8 (91.5% before); floor
# raised to the measured value. Measured when the IGP started booting
# synced (every originated LSA installed in every LSDB by Start, held to
# the flooded start kept in its tests): 92.9% for internal/ospf at
# GOMAXPROCS 1, 2, 4 and 8 (92.3% before); floor raised to the measured
# value. Measured when the data plane started keeping its readings per
# change (series on request, the rate vector held to the per-call sums
# kept in its tests): 94.1% for internal/netsim at GOMAXPROCS 1, 2, 4 and
# 8 (93.8% before); floor raised to the measured value.
# Measured when the reshare became one walk per dirty component (the
# full-solve fallback, the union-find re-partition and two guards that
# could not fire deleted): 95.5% for internal/netsim at GOMAXPROCS 1, 2,
# 4 and 8 (94.1% before); floor raised to the measured value.
# Measured when the scheduler started carving its events and tickers
# from chunks and the IGP domain its routers, adjacencies, rings and
# packet buffers from slabs (the retransmission list now one ring, its
# misuse panics and Ring.Init tested): 99.4% for internal/event and 93.5%
# for internal/ospf at GOMAXPROCS 1, 2, 4 and 8 (96.8% and 93.4%
# before); floors unchanged.
cover:
	@$(GO) test -cover ./... > cover.out.tmp; s=$$?; cat cover.out.tmp; \
	if [ $$s -ne 0 ]; then rm -f cover.out.tmp; exit $$s; fi; \
	for want in internal/qoe:90.0 internal/controller:88.1 internal/spf:94.1 internal/ospf:92.9 \
	    internal/lpm:96.1 internal/video:86.5 internal/netsim:95.5 \
	    internal/fibbing:92.0 internal/te:86.8 internal/event:94.6 \
	    internal/monitor:98.6 internal/bfd:97.1; do \
	  pkg=$${want%%:*}; floor=$${want##*:}; \
	  pct=$$(grep -E "fibbing.net/fibbing/$$pkg	" cover.out.tmp \
	    | grep -oE '[0-9.]+% of statements' | cut -d'%' -f1); \
	  if [ -z "$$pct" ]; then \
	    echo "cover: no coverage line for $$pkg" >&2; rm -f cover.out.tmp; exit 1; \
	  fi; \
	  if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p+0 >= f+0)}'; then \
	    echo "cover: $$pkg at $$pct% is below the $$floor% floor" >&2; \
	    rm -f cover.out.tmp; exit 1; \
	  fi; \
	  echo "cover: $$pkg $$pct% >= $$floor% floor"; \
	done; rm -f cover.out.tmp

# Documentation gate: vet plus a grep-based link-and-anchor check over
# README.md and docs/ARCHITECTURE.md — every relative markdown link must
# point at an existing file and every #fragment at a real heading. Pure
# sh/grep/sed, no tool downloads, like the rest of the build.
docs-check: vet
	@set -e; \
	for doc in README.md docs/ARCHITECTURE.md; do \
	  test -f "$$doc" || { echo "docs-check: $$doc missing" >&2; exit 1; }; \
	  dir=$$(dirname "$$doc"); \
	  for target in $$(grep -oE '\]\([^)]+\)' "$$doc" | sed -e 's/^](//' -e 's/)$$//' | grep -Ev '^(http|mailto:)' ); do \
	    file=$${target%%\#*}; anchor=$${target#*\#}; \
	    if [ -n "$$file" ]; then \
	      test -e "$$dir/$$file" || { echo "docs-check: $$doc links missing file $$target" >&2; exit 1; }; \
	    fi; \
	    if [ "$$anchor" != "$$target" ] && [ -n "$$anchor" ]; then \
	      src="$$dir/$$file"; [ -n "$$file" ] || src="$$doc"; \
	      grep -hE '^#{1,6} ' "$$src" | sed -e 's/^#\{1,6\} //' | tr '[:upper:]' '[:lower:]' \
	        | sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g' | grep -qx "$$anchor" \
	        || { echo "docs-check: $$doc links missing anchor $$target" >&2; exit 1; }; \
	    fi; \
	  done; \
	done
	@grep -q 'docs/ARCHITECTURE.md' doc.go || { echo "docs-check: doc.go does not reference docs/ARCHITECTURE.md" >&2; exit 1; }
	@grep -q 'docs/ARCHITECTURE.md' README.md || { echo "docs-check: README.md does not link docs/ARCHITECTURE.md" >&2; exit 1; }
	@echo docs-check OK
