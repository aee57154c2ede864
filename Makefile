GO ?= go

.PHONY: build test ci bench bench-check bench-engine vet fmt-check lint race soak fuzz-smoke

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

# lint builds ibvet (to the git-ignored ./ibvet) and hands it to go vet as
# the vet tool: the go command loads every package, test variants included,
# and ibvet runs the repo's own determinism, pooling and hot-path analyzers
# (internal/lint) on each. The standard vet passes are `make vet`. Fix a
# finding by sorting map keys or moving the access, or suppress a deliberate
# one with a reasoned "//lint:ignore <analyzer> why".
lint:
	$(GO) build -o ibvet ./cmd/ibvet
	$(GO) vet -vettool=$(CURDIR)/ibvet ./...

# race runs the race detector over the packages with internal concurrency
# (the experiment campaign runner, whose concurrent figure and study runs
# share read-only subnets, and the verifier, whose concurrent Runs share
# recycled per-run state) and the packages the
# determinism analyzers guard (sim, sm, core), whose order-sensitive paths
# the race pass exercises twice via the determinism regression tests. The sim suite
# includes the scenario fixtures (faults, reliable transport, every
# selector), the fault-injection paths (link death, SM traps, staged table
# updates, reselection), the quick recovery study and the allocation tests,
# which hold under the detector since the arena pools (internal/arena) keep
# what they are given. The second line
# repeats the recycled-run-state test ten times: concurrent runs share sim's
# arena pool, so a run that leaks state into the next, or two runs that share
# one arena, shows up as a race or a result that depends on run order. The
# third line does the same for verify.Run, whose concurrent runs share
# verify's. The fourth repeats the concurrent FaultPlan runs that share one
# configured subnet's untouched tables and its reverse index, which no run
# may write.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiment/... ./internal/sm/... ./internal/core/... ./internal/verify/...
	$(GO) test -race -count=10 -run TestRunIndependentOfPriorRuns ./internal/sim/
	$(GO) test -race -count=10 -run TestRunIndependentOfPooledRuns ./internal/verify/
	$(GO) test -race -count=10 -run TestFaultRunLeavesSubnetPristine ./internal/sim/

# soak runs the deterministic chaos campaigns: two seeds of link-flap
# schedules with the reliable transport on, each executed twice per scheduler
# path (calendar and heap-only) and diffed bit for bit. Each run also
# re-checks generated = delivered + failed + in-flight, which holds by
# construction (the simulator derives in-flight as the remainder), so the
# diff, not that check, is what the soak gates on.
soak:
	$(GO) test -run 'TestChaosSoakDeterminism' -count=1 ./internal/experiment/

# fuzz-smoke runs each fuzz target for a bounded time: FuzzMAD checks that
# every 64-byte SMP payload decodes, re-encodes and decodes again to the same
# value under each MAD attribute codec, without panicking. Run one longer by
# hand with `go test -run xxx -fuzz FuzzMAD -fuzztime 5m ./internal/ib/`.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzMAD -fuzztime 10s ./internal/ib/

# bench-check vets and tests the nested benchmark module (bench/, module
# mlid/bench), which the root `go test ./...` never builds: renaming an
# identifier bench/ uses must fail here, not in `bash bench/run.sh`.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# ci is the gate for every change: vet, the gofmt check, ibvet, the tier-1
# tests (which hold every pinned output, command and library, against its
# golden file through internal/golden), the race pass, the chaos soak, the
# bounded fuzz run, the benchmark module check and one iteration of each
# layer benchmark, so a benchmark whose body fails is caught.
ci: build vet fmt-check lint test race soak fuzz-smoke bench-check bench

# BENCH_TIME / BENCH_COUNT tune the layer benchmarks: the defaults (one
# iteration, run once) are quick, but single-iteration numbers are noisy —
# override both for comparable measurements, e.g.
#   make bench BENCH_TIME=3x BENCH_COUNT=5
# A number that backs a performance claim comes from bench/ (bash
# bench/run.sh), which takes repeated samples and compares runs; the
# figures and Table 1 are measured there, not here.
BENCH_TIME ?= 1x
BENCH_COUNT ?= 1

# bench runs the control-plane layer benchmarks with allocation counts:
# subnet configuration beside ib.SubnetManager, route tracing, incremental
# repair and SM recovery beside core.Trace and core.RepairState, and the
# static verifier beside verify.Run (the per-epoch pass, healthy and
# repaired, and the quality pass on the all-to-one matrix).
bench:
	$(GO) test -run xxx -bench 'BenchmarkSubnetConfigure|BenchmarkTrace|BenchmarkRepairIncremental|BenchmarkSMRecovery|BenchmarkVerifyEpoch|BenchmarkLinkLoad' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) ./internal/ib/ ./internal/core/ ./internal/verify/

# bench-engine runs the scheduler micro-benchmarks (ns/event, allocs/op).
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngineSchedule|BenchmarkRunSmall' -benchmem ./internal/sim/
