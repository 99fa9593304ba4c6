GO ?= go

.PHONY: check lint test vet bench-module race race-harness perf perf-quick perf-update bench-engine bench-serve bench-cluster loc

# check is the pre-merge gate, in order: the determinism analyzers
# (pagodavet), go vet, the full test suite, the bench/ module's tests, race
# detection across the internal tree, and the quick tier of the
# perf-regression gate (pagodaperf against the BENCH_*.json baselines). lint
# runs first so a wall-clock read or stray goroutine fails the build before
# anything expensive starts.
check: lint vet test bench-module race perf-quick

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
