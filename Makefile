GO ?= go

.PHONY: build test ci bench bench-check bench-engine vet fmt-check lint lint-fix race soak verify-smoke sweep-smoke sim-smoke adaptive-smoke sm-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any tracked Go file outside testdata/ is not gofmt'd
# (analyzer fixtures under testdata/ keep deliberate layouts) and lists the
# files to fix with `gofmt -w`.
GOFMT ?= gofmt
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v -e '^testdata/' -e '/testdata/' | xargs $(GOFMT) -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs ibvet: the standard go vet passes plus the repo's own
# determinism and pooling analyzers (internal/lint). CI passes
# LINT_FLAGS=-json so findings come out as JSON lines the registered
# .github/problem-matcher.json turns into file annotations.
LINT_FLAGS ?=
lint:
	$(GO) run ./cmd/ibvet $(LINT_FLAGS) ./...

# lint-fix has no auto-fixer; it reruns ibvet so the findings to address are
# the last thing on screen. Fix each by sorting map keys / moving the access,
# or suppress a deliberate one with a reasoned "//lint:ignore <analyzer> why".
lint-fix: lint

# race runs the race detector over the packages with internal concurrency
# (the experiment campaign runner, whose concurrent figure and study runs
# share read-only subnets, and the verifier, whose concurrent Runs share
# runPool's recycled per-run state) and the packages the
# determinism analyzers guard (sim, sm, core), whose order-sensitive paths
# the race pass exercises twice via the determinism regression tests. The sim suite
# includes the scenario fixtures (faults, reliable transport, every
# selector), the fault-injection paths (link death, SM traps, staged table
# updates, reselection) and the quick recovery study. The second line
# repeats the recycled-run-state test ten times: concurrent runs share
# simPool, so a run that leaks state into the next, or two runs that share
# one arena, shows up as a race or a result that depends on run order. The
# third line does the same for verify.Run, whose concurrent runs share
# runPool.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiment/... ./internal/sm/... ./internal/core/... ./internal/verify/...
	$(GO) test -race -count=10 -run TestRunIndependentOfPriorRuns ./internal/sim/
	$(GO) test -race -count=10 -run TestRunIndependentOfPooledRuns ./internal/verify/

# soak runs the deterministic chaos campaigns: two seeds of link-flap
# schedules with the reliable transport on, each executed twice per scheduler
# path (calendar and heap-only) and diffed bit for bit. Each run also
# re-checks generated = delivered + failed + in-flight, which holds by
# construction (the simulator derives in-flight as the remainder), so the
# diff, not that check, is what the soak gates on.
soak:
	$(GO) test -run 'TestChaosSoakDeterminism' -count=1 ./internal/experiment/

# verify-smoke proves the static guarantees on every golden fabric: ibverify
# must find zero error-severity findings (reachability, per-VL deadlock
# freedom, addressing) for both schemes on the four paper networks. Two
# SM-repaired fabrics, FT(8,2) MLID with a two-link fault plan (text) and
# FT(4,3) SLID with three dead links (-json), must also reproduce their
# pinned reports in cmd/ibverify/testdata byte for byte — dead-link
# warnings are expected there, errors never — and so must the FT(8,2)
# fault plan's report under the random selector (the quality pass tracing
# the fault-avoiding DLIDs core.UsableOffsets admits) and the reduced
# FT(8,3) degraded-fabric study's CSV (static verifier with fault-avoiding
# selection, then the simulated outage with per-epoch verification). After
# an intended report change, regenerate a report by redirecting the same
# command into its file. MLID on FT(16,3) is the deliberate negative: the LID plan overflows
# the 16-bit space, so ibverify must exit non-zero with the addressing
# finding.
verify-smoke:
	$(GO) run ./cmd/ibverify -m 4 -n 4 -scheme MLID -vls 4
	$(GO) run ./cmd/ibverify -m 4 -n 4 -scheme SLID -vls 4
	$(GO) run ./cmd/ibverify -m 8 -n 3 -scheme MLID -vls 2
	$(GO) run ./cmd/ibverify -m 8 -n 3 -scheme SLID -vls 2
	$(GO) run ./cmd/ibverify -m 16 -n 2 -scheme MLID -vls 2
	$(GO) run ./cmd/ibverify -m 16 -n 2 -scheme SLID -vls 2
	$(GO) run ./cmd/ibverify -m 32 -n 2 -scheme MLID -vls 1
	$(GO) run ./cmd/ibverify -m 32 -n 2 -scheme SLID -vls 1
	out=$$($(GO) run ./cmd/ibverify -m 8 -n 2 -scheme MLID -vls 2 -fault 2:2,9:3) && \
		printf '%s\n' "$$out" | diff cmd/ibverify/testdata/fault-mlid-8x2.txt -
	out=$$($(GO) run ./cmd/ibverify -m 8 -n 2 -scheme MLID -vls 2 -fault 2:2,9:3 -select random) && \
		printf '%s\n' "$$out" | diff cmd/ibverify/testdata/fault-mlid-8x2-select.txt -
	out=$$($(GO) run ./cmd/ibverify -m 4 -n 3 -scheme SLID -vls 2 -json -fault 0:2,4:3,9:2) && \
		printf '%s\n' "$$out" | diff cmd/ibverify/testdata/fault-slid-4x3.jsonl -
	out=$$($(GO) run ./cmd/ibverify -m 8 -n 3 -degraded 0.10 -quick -json) && \
		printf '%s\n' "$$out" | diff cmd/ibverify/testdata/degraded-8x3-quick.csv -
	! $(GO) run ./cmd/ibverify -m 16 -n 3 -scheme MLID

# sweep-smoke pins ibsweep's output: Table 1 plus the five reduced studies
# (-fault, -chaos, -degraded, -adaptive, -smstudy, with -series) must
# reproduce cmd/ibsweep/testdata byte for byte, stdout in quick.txt and the
# CSVs in quick/. Every study also enforces its per-run invariants while it
# runs (the SM study's one failover and sweep-recovered trap loss per
# in-band run among them). After an intended output change, regenerate the
# files from inside cmd/ibsweep/testdata with
#   go run .. -table1 -fault -chaos -degraded -adaptive -smstudy -quick -series -csv quick > quick.txt
SWEEP_FLAGS = -table1 -fault -chaos -degraded -adaptive -smstudy -quick -series -csv quick
sweep-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(GO) build -o "$$dir/ibsweep" ./cmd/ibsweep && mkdir "$$dir/out" && \
		(cd "$$dir/out" && ../ibsweep $(SWEEP_FLAGS) > quick.txt) && \
		diff -r cmd/ibsweep/testdata "$$dir/out"

# sim-smoke pins the single-run and closed-workload commands: one ibsim run
# with the latency histogram, the busiest ports and a packet trace, and both
# ibcollective exchanges, must reproduce cmd/ibsim/testdata/smoke.txt and
# cmd/ibcollective/testdata/{gather,alltoall}.txt byte for byte. After an
# intended output change, regenerate a file by redirecting the same command
# into it.
IBSIM_FLAGS = -m 4 -n 2 -hist -ports 3 -trace 1 -warmup 5000 -measure 20000
sim-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(GO) build -o "$$dir/ibsim" ./cmd/ibsim && \
		$(GO) build -o "$$dir/ibcollective" ./cmd/ibcollective && \
		"$$dir/ibsim" $(IBSIM_FLAGS) | diff cmd/ibsim/testdata/smoke.txt - && \
		for c in gather alltoall; do \
			"$$dir/ibcollective" -m 8 -n 2 -collective $$c | diff cmd/ibcollective/testdata/$$c.txt - || exit 1; \
		done

# adaptive-smoke covers the reduced path-selection family study (every
# pluggable selector over the same MLID fabric on the policy-separating
# workloads, quiet and degraded) through the pinned sweep-smoke output.
adaptive-smoke: sweep-smoke

# sm-smoke exercises the subnet-management models: the in-band regression
# suite (lost-trap edge, sweep-only recovery, failover determinism run to
# run and on both scheduler paths, exact oracle equivalence when the
# feature is off) and the table-convergence check of both models (live
# tables equal the SM's repair target once recovery quiesces). The reduced
# FT(4,2) campaign, whose invariants — one failover per in-band run,
# sweep-recovered trap loss — are asserted inside every run, is part of the
# pinned sweep-smoke output.
sm-smoke: sweep-smoke
	$(GO) test -run 'TestInBandSM|TestSMTablesConvergeToRepairTarget' -count=1 ./internal/sim/

# bench-check vets and tests the nested benchmark module (bench/, module
# mlid/bench), which the root `go test ./...` never builds: renaming an
# identifier bench/ uses must fail here, not in `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# ci is the gate for every change: tier-1 tests plus vet, the gofmt check,
# ibvet, the race pass, the chaos soak, the static verification smoke, the
# pinned ibsweep output (which the path-selection family smoke is), the
# pinned ibsim and ibcollective output, the in-band SM smoke and the
# benchmark module check.
ci: build vet fmt-check lint test race soak verify-smoke sweep-smoke sim-smoke adaptive-smoke sm-smoke bench-check

# BENCH_TIME / BENCH_COUNT tune the figure benchmarks: the defaults (one
# iteration, run once) are quick, but single-iteration numbers are noisy —
# override both for comparable measurements, e.g.
#   make bench BENCH_TIME=3x BENCH_COUNT=5
# A number that backs a performance claim comes from bench/ (bash
# bench/run.sh), which takes repeated samples and compares runs.
BENCH_TIME ?= 1x
BENCH_COUNT ?= 1

# bench regenerates the figure-level benchmarks with allocation counts, plus
# the control-plane repair benchmarks (incremental repair and SM recovery)
# and the per-epoch static verification layer (verify.Run, healthy and
# repaired).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFig|BenchmarkRepairIncremental|BenchmarkSMRecovery|BenchmarkVerifyEpoch' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) .

# bench-engine runs the scheduler micro-benchmarks (ns/event, allocs/op).
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngineSchedule|BenchmarkRunSmall' -benchmem ./internal/sim/
