# Tier-1 gate: every change must keep `make check` green.
GO ?= go

# Packages that fork, or hold state a forking caller shares.  par holds
# the three shapes.  archive forks the group commit over its volumes
# (DoWide), runs Monte Carlo blocks on Map, and shares one codec and
# buffer pool across a seed sweep's simulators; blobstore is the volume
# each group-commit worker owns.  fault and obs fan seeds out on Map.
# crypt, update, acl and core meet the leaf offload, which computes
# client signatures on par's helper goroutine and joins them on the
# kernel's.  The -race pass over these runs with GOMAXPROCS=4 so the
# pool forks and the helper exists even on small CI machines.  The
# kernels themselves (erasure, merkle, bloom), the simulator and the
# network never fork; `cover`'s -race suite pass covers them and the
# rest.
PAR_PKGS = ./internal/par/ ./internal/archive/ ./internal/blobstore/ \
	./internal/fault/ ./internal/obs/ ./internal/crypt/ \
	./internal/update/ ./internal/acl/ ./internal/core/

.PHONY: check fmt vet vet-rand build test race-par bench bench-smoke cover cover-write gates trajectory

# Every prerequisite after vet compiles the tree and `gates` links
# every program, so `build` is not one of them; `cover` replays the
# checked-in fuzz seed corpora (testdata/fuzz) as part of `go test`.
check: fmt vet vet-rand race-par bench-smoke cover gates

# Formatting gate: gofmt must have nothing to say about any file.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "fmt: not gofmt-clean (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Determinism lint: package-global math/rand draws (rand.Intn, rand.Read,
# ...) bypass the simulator's seeded sources and make runs depend on
# process-global state.  Every draw must come through an injected
# *rand.Rand (kernel RNG or a per-experiment seeded source); only the
# simulator core under internal/sim may touch the global generator.
vet-rand:
	@bad=$$(grep -rnE 'rand\.(Intn|Int31n?|Int63n?|Int|Uint32|Uint64|Float32|Float64|ExpFloat64|NormFloat64|Perm|Shuffle|Read|Seed)\(' \
		--include '*.go' . | grep -v '^\./internal/sim/' || true); \
	if [ -n "$$bad" ]; then \
		echo "vet-rand: global math/rand draw outside internal/sim:"; \
		echo "$$bad"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the forking packages with enough procs that Map really
# runs concurrent workers and Start hands signatures to the helper.
race-par:
	GOMAXPROCS=4 $(GO) test -count=1 -race $(PAR_PKGS)

bench:
	$(GO) test -bench . -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or panic, without paying measurement time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One suite pass, race detector on, that is also the coverage ratchet:
# per-package floors live in cover/FLOORS.txt, and the gate fails if
# any test fails or races, or any package regresses below its floor
# (coverfloor passes the suite's output through).  After raising
# coverage, move the floors up with `make cover-write`.
cover:
	$(GO) test -race -cover ./... | $(GO) run ./cmd/coverfloor -floors cover/FLOORS.txt

cover-write:
	$(GO) test -race -cover ./... | $(GO) run ./cmd/coverfloor -floors cover/FLOORS.txt -write

# Determinism and reachability gates (cmd/gates): coverage-instrumented
# builds of osexp, the oceanstore demo and the examples run one table —
# the 100k-node soak, the 1k-node disk and mem soaks at both fsync
# disciplines, the 10k-node introspective flash soak, the scenario
# catalogue, every experiment with both dumps, a two-seed sweep, an
# open-loop diurnal soak that grows mid-run, and each example program —
# each row byte-identical (stdout and the dumps it names) across
# GOMAXPROCS 1/4 and storage backends, with its rails present and, for
# the 100k-node row, peak RSS within budget.  The same runs take the
# census: the functions none of them enters must be exactly the ones
# cover/REACH.txt lists.  A failure names the row (or the census line)
# and leaves the outputs on disk.
gates:
	$(GO) run ./cmd/gates

# Benchmark trajectory: `make trajectory SEED=1` runs each workload
# BENCHMARK.json names once, untraced, through the benchmark's own entry
# point, and appends one record per workload to BENCH_TRAJECTORY.json —
# commit, seed, workload, failed ops and the end-to-end metrics.  The
# file is a JSON array, one record a line, that only ever grows.  A
# commit ending in "+" was measured with uncommitted changes on top of
# it.  Needs jq.
SEED ?= 1
TRAJECTORY = BENCH_TRAJECTORY.json
trajectory:
	@set -e; \
	commit=$$(git rev-parse --short HEAD); \
	git diff --quiet HEAD -- . ':(exclude)$(TRAJECTORY)' || commit=$$commit+; \
	names=$$(jq -c '[.end_to_end[].name]' BENCHMARK.json); \
	mkdir -p .bench_build; new=.bench_build/trajectory.new; : > $$new; \
	for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		bash benchmark/run.sh --workload $$w --seed $(SEED) --trace 0 | tail -n 1 | \
		jq -c --arg commit $$commit --arg workload $$w --argjson seed $(SEED) --argjson names "$$names" \
			'{commit: $$commit, seed: $$seed, workload: $$workload, failed: .failed, metrics: (.metrics as $$m | reduce $$names[] as $$n ({}; .[$$n] = $$m[$$n].value))}' >> $$new; \
	done; \
	{ echo '['; { [ ! -s $(TRAJECTORY) ] || jq -c '.[]' $(TRAJECTORY); cat $$new; } | sed '$$!s/$$/,/'; echo ']'; } > $$new.all; \
	mv $$new.all $(TRAJECTORY); rm $$new; \
	echo "trajectory: $$(jq length $(TRAJECTORY)) records in $(TRAJECTORY), the last $$(jq -r '.workloads | length' BENCHMARK.json) from $$commit at seed $(SEED)"
