# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race svcbench-test bench bench-skyline bench-smoke bench-check cover fuzz fuzz-smoke fmt-check lint lint-fast e2e e2e-smoke experiments examples clean

# The longitudinal benchmark history: every `make bench` / `make
# bench-skyline` run appends its report here (with git SHA, cores,
# workers, and latency quantiles), and `make bench-check` gates on the
# trajectory — the latest run of each configuration vs the median of its
# predecessors. See docs/OBSERVABILITY.md. GIT_SHA stamps each appended
# line with the commit the run was built from, suffixed -dirty when the
# tree had uncommitted changes (--exclude='*' keeps tags out of it).
TRAJECTORY := results/BENCH_trajectory.jsonl
GIT_SHA := $(shell git describe --always --dirty --exclude='*' 2>/dev/null || echo unknown)

all: build lint test

build:
	go build ./...

# gofmt, go vet and the project lint suite (cmd/mldcslint): epsilon
# policy, float equality, angle normalization, obs-sink, dropped skyline
# errors, and the concurrency/hot-path analyzers (scratchescape,
# snapshotmut, atomicfield, hotpathalloc). See docs/STATIC_ANALYSIS.md.
lint: fmt-check
	go vet ./...
	go run ./cmd/mldcslint ./...

# Fails when gofmt would reformat any Go file outside vendor/ (analyzer
# fixtures under testdata/ included); .bench_build/ holds svcbench's
# build caches, not project sources.
fmt-check:
	@files=$$(find . \( -path ./vendor -o -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists files that need gofmt -w:" >&2; echo "$$files" >&2; exit 1; fi

# lint-fast: vet + mldcslint on only the packages whose Go files changed
# since the merge-base with origin/main (falling back to HEAD~1; full run
# when no base exists). Cross-package facts still load the dependencies
# of the changed packages, so analyzer results match the full run for
# those packages. Developer loop only — CI runs the full `make lint`.
lint-fast:
	@base=$$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse HEAD~1 2>/dev/null || true); \
	if [ -z "$$base" ]; then echo "lint-fast: no diff base; running full lint" >&2; $(MAKE) lint; exit $$?; fi; \
	files=$$( (git diff --name-only "$$base" -- '*.go'; git ls-files --others --exclude-standard -- '*.go') | grep -v '/testdata/' | sort -u ); \
	dirs=$$(for f in $$files; do [ -f "$$f" ] && dirname "$$f"; done | sort -u | sed 's|^|./|'); \
	if [ -z "$$dirs" ]; then echo "lint-fast: no changed Go packages since $$base"; exit 0; fi; \
	echo "lint-fast: $$dirs"; \
	go vet $$dirs && go run ./cmd/mldcslint $$dirs

test:
	go test ./...

race:
	go test -race ./...

# The service benchmark is its own module (svcbench/go.mod replaces repro
# with this checkout), so the ./... targets above never build it. Vet and
# race-test it offline so a public-API change that breaks the benchmark
# fails here rather than in the benchmark run (about 15 s).
svcbench-test:
	cd svcbench && export GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly && go vet ./... && go test -race ./...

# The engine report runs twice: once at the default worker count
# (GOMAXPROCS — the multi-core configuration this machine actually
# serves) and once pinned to one worker (the sequential baseline every
# speedup is measured against). Both land in the trajectory; benchdiff
# keys on the worker count, so each configuration is gated against its
# own history. On a single-core machine the two runs share a key — the
# gate then just sees two samples of the same configuration.
bench:
	go test -bench=. -benchmem ./...
	ENGINE_BENCH_OUT=$(CURDIR)/BENCH_engine.json go test -run=TestEngineBenchReport -count=1 ./internal/engine/
	ENGINE_BENCH_OUT=$(CURDIR)/BENCH_engine_w1.json ENGINE_BENCH_WORKERS=1 go test -run=TestEngineBenchReport -count=1 ./internal/engine/
	go run ./cmd/benchdiff -append -engine BENCH_engine.json -trajectory $(TRAJECTORY) -sha=$(GIT_SHA)
	go run ./cmd/benchdiff -append -engine BENCH_engine_w1.json -trajectory $(TRAJECTORY) -sha=$(GIT_SHA)
	go run ./cmd/benchdiff -check -trajectory $(TRAJECTORY)

# Skyline kernel microbenchmarks + the machine-readable BENCH_skyline.json
# report (ns/op, allocs/op, mean arc count per input size).
bench-skyline:
	go test -bench='^(BenchmarkCompute|BenchmarkComputeInto)$$' -benchmem ./internal/skyline/
	SKYLINE_BENCH_OUT=$(CURDIR)/BENCH_skyline.json go test -run=TestSkylineBenchReport -count=1 -v ./internal/skyline/
	go run ./cmd/benchdiff -append -skyline BENCH_skyline.json -trajectory $(TRAJECTORY) -sha=$(GIT_SHA)
	go run ./cmd/benchdiff -check -trajectory $(TRAJECTORY)

# Regression gate over the committed trajectory (no fresh timing, so it is
# deterministic in CI): latest run of each configuration vs the median of
# its predecessors.
bench-check:
	go run ./cmd/benchdiff -check -trajectory $(TRAJECTORY)

# CI smoke: every skyline, engine, and obs microbenchmark compiles and
# runs once (-benchtime=1x; build + sanity, not timing), the allocation
# regression tests hold under the race detector, and a small instrumented
# engine run dumps its metrics (with latency quantiles) for the CI
# artifact upload.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./internal/skyline/ ./internal/engine/ ./internal/obs/
	go test -race -run='Allocs' -count=1 ./internal/skyline/ ./internal/engine/
	ENGINE_BENCH_OUT=$(CURDIR)/results/bench_smoke_metrics.json ENGINE_BENCH_N=2000 \
		go test -run=TestEngineBenchReport -count=1 ./internal/engine/
	ENGINE_BENCH_OUT=$(CURDIR)/results/bench_smoke_metrics_w1.json ENGINE_BENCH_N=2000 ENGINE_BENCH_WORKERS=1 \
		go test -run=TestEngineBenchReport -count=1 ./internal/engine/

cover:
	go test -coverprofile=cover.out ./internal/... .
	go tool cover -func=cover.out | tail -1

# Every fuzz run caps the minimization of each new input at 1 s. At the
# default 60 s a run sits at 0 execs/s while it shrinks an input it found
# merely interesting. A crasher still fails the run.
fuzz:
	go test -fuzz=FuzzSkylineInvariants -fuzztime=60s -fuzzminimizetime=1s ./internal/skyline/
	go test -fuzz=FuzzMergeAgainstNaive -fuzztime=60s -fuzzminimizetime=1s ./internal/skyline/
	go test -fuzz=FuzzKineticRepair -fuzztime=60s -fuzzminimizetime=1s ./internal/skyline/
	go test -fuzz=FuzzCrossingAngles -fuzztime=60s -fuzzminimizetime=1s ./internal/skyline/
	go test -fuzz=FuzzSpanBounds -fuzztime=60s -fuzzminimizetime=1s ./internal/skyline/
	go test -fuzz=FuzzSelectorInvariants -fuzztime=60s -fuzzminimizetime=1s ./internal/forwarding/
	go test -fuzz=FuzzEngineVsSequential -fuzztime=60s -fuzzminimizetime=1s ./internal/engine/
	go test -fuzz=FuzzDeltaDecode -fuzztime=60s -fuzzminimizetime=1s ./internal/mldcsd/

# Short fuzz pass over every target — the CI smoke step.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzSkylineInvariants -fuzztime=10s -fuzzminimizetime=1s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzMergeAgainstNaive -fuzztime=10s -fuzzminimizetime=1s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzKineticRepair -fuzztime=10s -fuzzminimizetime=1s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzCrossingAngles -fuzztime=10s -fuzzminimizetime=1s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzSpanBounds -fuzztime=10s -fuzzminimizetime=1s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzSelectorInvariants -fuzztime=10s -fuzzminimizetime=1s ./internal/forwarding/
	go test -run='^$$' -fuzz=FuzzEngineVsSequential -fuzztime=10s -fuzzminimizetime=1s ./internal/engine/
	go test -run='^$$' -fuzz=FuzzDeltaDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/mldcsd/

# Chaos e2e harness for the mldcsd service: seeded action streams against
# a live server, drained and checked byte-for-byte against the sequential
# oracle, plus the banked-regression-seed replay and the mutation
# sensitivity gate. See docs/TESTING.md ("Chaos e2e harness").
e2e:
	scripts/e2e/harness.sh full

# CI budget: fewer/shorter fresh seeds, same bank replay and mutation gate.
e2e-smoke:
	scripts/e2e/harness.sh smoke

# Full paper reproduction (the 200-replication suite) + extensions.
experiments:
	go run ./cmd/mldcsim -scenario scenarios/paper.json -report report/paper
	go run ./cmd/mldcsim -scenario scenarios/extensions.json -report report/extensions

examples:
	go run ./examples/quickstart
	go run ./examples/heterogeneous
	go run ./examples/broadcaststorm
	go run ./examples/routediscovery
	go run ./examples/backbone
	go run ./examples/dynamictopology
	go run ./examples/skylineviz .

clean:
	rm -f cover.out
	rm -rf report
