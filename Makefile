GO ?= go

.PHONY: check lint suppressions test vet bench-module race race-core race-harness perf perf-quick perf-update bench-engine bench-serve bench-cluster loc traffic

# check is the pre-merge gate, in order: the determinism analyzers
# (pagodavet), go vet, the full test suite, the bench/ module's tests, race
# detection on the engine, GPU and runtime packages and then across the
# internal tree, and the quick tier of the perf-regression gate (pagodaperf
# against the BENCH_*.json baselines). lint runs first so a wall-clock read
# or stray goroutine fails the build before anything expensive starts.
check: lint vet test bench-module race-core race perf-quick

# lint runs the project's determinism & sim-safety analyzers over a tree
# type-checked once per package: the per-file checks (floatorder, for
# order-unstable float accumulation, among them) plus two whole-module
# passes, taintflow (call-graph taint tracking from nondeterminism sources
# into sim-time sinks) and unused (non-test functions that no root reaches;
# roots are main and init, the root package's exported API, bench/, the
# exported API of packages nothing imports, package-level var initializers
# and interface-named methods — and struct fields no non-test code reads;
# tests are neither roots nor readers, so a field kept for a test carries an
# allow naming that test). Every check runs
# through analysis.Check, the pipeline the analyzer fixture tests run too.
# Any unsuppressed finding (e.g. a time.Now laundered through helper
# functions into Engine.Schedule) exits nonzero and fails the gate;
# intentional exceptions are annotated in the source with //pagoda:allow
# <check> <reason>, and a suppression that suppresses nothing is itself a
# finding. `pagodavet -json` emits the same findings machine-readably for CI
# annotation. lint also fails when any tracked Go file is not gofmt-clean.
lint:
	$(GO) run ./cmd/pagodavet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# suppressions prints only the number of findings pagodavet suppresses
# (//pagoda:allow annotations that each silence a real finding). The quick
# tier of the perf gate pins it at a 0% band, so an annotation added
# without one taken away fails CI.
suppressions:
	@$(GO) run ./cmd/pagodavet -v ./... | sed -n 's/^pagodavet: .* \([0-9][0-9]*\) suppressed$$/\1/p'

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench-module builds and tests bench/, the benchmark's own Go module: the
# root `go test ./...` never compiles it, so without this target a change to
# a runners field that bench uses passes check and fails only in CI.
bench-module:
	cd bench && $(GO) test ./...

# race covers the whole internal tree, including the parallel experiment
# sweep (harness's TestAllExperimentsDeterministicAndParallelSafe runs every
# experiment on a 4-wide cell pool under the race detector). The explicit
# timeout keeps the harness package — >10 minutes under the race detector on
# a small box — from tripping go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./internal/...

# race-core runs the race detector over the engine, the GPU model and the
# Pagoda runtime alone, where warps start, stop and are recycled (about 25 s
# on 2 CPUs); CI runs it in place of the full race sweep.
race-core:
	$(GO) test -race ./internal/sim ./internal/gpu ./internal/core

# race-harness is the focused version of the above for quick iteration on
# the cell scheduler.
race-harness:
	$(GO) test -race -run 'TestAllExperimentsDeterministicAndParallelSafe' ./internal/harness/

# perf is the machine-verified performance-regression gate (cmd/pagodaperf):
# it re-runs every bench command recorded in BENCH_{sim,serve,cluster}.json,
# extracts the declared metrics, and fails on drift past each tolerance band.
# perf-quick runs only the metrics marked quick (the hot-path micro
# benchmarks and the exact nontest_go_lines code-size ratchet) and is part
# of `make check`; the full set re-runs the
# experiment sweeps and takes minutes. perf-update re-measures everything and
# ratchets the baselines with host/date/git-rev provenance — run it (on a
# quiet machine) after an intentional perf change, and commit the diff.
perf:
	$(GO) run ./cmd/pagodaperf

perf-quick:
	$(GO) run ./cmd/pagodaperf -quick

perf-update:
	$(GO) run ./cmd/pagodaperf -update

bench-engine:
	$(GO) test -bench=BenchmarkEngine -benchtime=1x -run='^$$' ./internal/sim/ .

# bench-serve covers the open-loop serving hot paths: arrival generation and
# percentile assembly (internal/serve) plus one timed-submission run per GPU
# scheme (internal/runners). BENCH_serve.json records the capacity-sweep
# wall-clock trajectory.
bench-serve:
	$(GO) test -bench='BenchmarkArrivals|BenchmarkSummarize' -benchmem -run='^$$' ./internal/serve/
	$(GO) test -bench=BenchmarkOpenLoop -benchtime=1x -run='^$$' ./internal/runners/

# bench-cluster covers the multi-GPU fleet path: one 4-node timed-submission
# run per scheme on a single engine (internal/runners). BENCH_cluster.json
# records the cluster_scaling sweep's wall clock and headline capacity.
# internal/cluster itself rides the standard gate: lint, test and race all
# glob ./internal/..., so `make check` covers it with no extra target.
bench-cluster:
	$(GO) test -bench=BenchmarkCluster -benchtime=1x -run='^$$' ./internal/runners/

# loc prints the lines of non-test Go in tracked files outside bench/ and
# testdata/ (analyzer fixtures no program builds): the code-size headline of
# ROADMAP.md, which CHANGES.md entries quote as before -> after. Stage new
# files first; untracked ones are not counted.
loc:
	@git ls-files '*.go' | grep -v -e '^bench/' -e '/testdata/' -e '_test\.go$$' | xargs cat | wc -l

# traffic measures which code the documented programs execute: it builds
# pagodabench, pagodatrace, gpuinfo, the four examples and the bench/ binary
# with coverage over every repro package, runs what the repo documents
# (pagodabench -exp all, tenant_qos with five tenants, one- and
# two-experiment runs in csv and json, pagodatrace's four modes, the
# examples, gpuinfo and every bench workload for 3 s), then prints the
# per-package statement coverage and every non-test block whose merged count
# is 0. A zero count is a candidate for deletion, never proof (DESIGN.md §5).
# Binaries, counters and traces go to a mktemp -d directory, never into the
# repo; the run takes about 11 minutes on 2 CPUs. Not part of check.
traffic:
	@set -e; d=$$(mktemp -d); trap 'rm -rf '$$d EXIT; mkdir -p $$d/cov; \
	cover="-cover -coverpkg=repro/..."; \
	for c in pagodabench pagodatrace gpuinfo; do $(GO) build $$cover -o $$d/$$c ./cmd/$$c; done; \
	for x in quickstart multiprog imagepipeline netencrypt; do $(GO) build $$cover -o $$d/$$x ./examples/$$x; done; \
	$(GO) -C bench build $$cover -o $$d/pagoda-bench .; \
	export GOCOVERDIR=$$d/cov; \
	$$d/pagodabench -exp all -tasks 2048 > /dev/null; \
	$$d/pagodabench -exp tenant_qos -tenants 5 > /dev/null; \
	for f in csv json; do \
		$$d/pagodabench -exp tenant_qos -format $$f > /dev/null; \
		$$d/pagodabench -exp table3,tenant_qos -format $$f > /dev/null; done; \
	$$d/pagodatrace -bench MB -o $$d/plain.json > /dev/null; \
	$$d/pagodatrace -bench MB -nodes 3 -o $$d/nodes.json > /dev/null; \
	$$d/pagodatrace -bench XFMR -tenants 3 -tasks 96 -rate 192e3 -o $$d/tenants.json > /dev/null; \
	$$d/pagodatrace -bench MB -autoscale reactive -minnodes 1 -maxnodes 4 -tasks 128 -o $$d/autoscale.json > /dev/null; \
	for x in quickstart multiprog imagepipeline netencrypt gpuinfo; do $$d/$$x > /dev/null; done; \
	for w in closed_batch serve_poisson fleet_autoscale tenant_fleet; do \
		$$d/pagoda-bench --workload $$w --seconds 3 --trace 0 > /dev/null; done; \
	$(GO) tool covdata percent -i=$$d/cov; \
	$(GO) tool covdata textfmt -i=$$d/cov -o $$d/cov.txt; \
	awk 'NR > 1 { n[$$1] += $$3 } END { for (b in n) if (n[b] == 0) print b }' $$d/cov.txt | sort -V
