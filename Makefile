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

.PHONY: check fmt vet vet-rand build test race-par bench bench-smoke cover cover-write gates experiments trajectory million schedules

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

# Document, determinism and reachability gates (cmd/gates).  First the
# documents: every backticked `pkg.Name` or `Type.Member` in DESIGN.md,
# README.md, EXPERIMENTS.md and benchmark/README.md must name something
# the module declares (or be allowed, with a why, by cover/NAMES.txt),
# and every DESIGN §n citation must name a section.  Then
# coverage-instrumented builds of osexp, the oceanstore demo and the
# examples run one table — the 100k-node soak, the 1k-node disk and mem
# soaks at both fsync disciplines, the 10k-node introspective flash
# soak, the scenario catalogue, every experiment with both dumps (whose
# stdout must equal the committed EXPERIMENTS.out), a two-seed sweep, an
# open-loop diurnal soak that grows mid-run, and each example program —
# each row byte-identical (stdout and the dumps it names) across
# GOMAXPROCS 1/4 and storage backends, with its rails present and, for
# the 100k-node row, peak RSS within budget.  The same runs take the
# census: the functions none of them enters must be exactly the ones
# cover/REACH.txt lists.  A failure names the row (or the document, file
# or census line) and leaves the outputs on disk.
gates:
	$(GO) run ./cmd/gates

# The paper's tables: `make experiments` writes `osexp all 1`'s stdout,
# every figure and claim EXPERIMENTS.md sets beside the paper, to the
# committed EXPERIMENTS.out.  `make gates` fails when the experiments
# row's stdout differs from it, naming the first differing line; after
# a change that moves an experiment, run this and commit the file with
# the prose that reads it.  About five seconds.
experiments:
	$(GO) run ./cmd/osexp all 1 > EXPERIMENTS.out.tmp
	mv EXPERIMENTS.out.tmp EXPERIMENTS.out

# The agreement-safety long sweep: `make schedules N=2000` runs N seeds
# of every byz.TestScheduleSearch plan and logs each plan's count of
# violating schedules — the table EXPERIMENTS.md's "Agreement safety,
# searched" records — and fails on any violation.  About 30 s at N=2000
# on a 2-core box, so it is not part of check; the suite runs a
# 500-seed slice of the same plans.
N ?= 2000
schedules:
	$(GO) test ./internal/byz -run '^TestScheduleSearch$$' -schedules $(N) -count=1 -v

# Benchmark trajectory: `make trajectory SEED=1` runs each workload
# BENCHMARK.json names once, untraced, through the benchmark's own entry
# point, and appends one record per workload to BENCH_TRAJECTORY.json —
# commit, seed, workload, failed ops and the end-to-end metrics.  The
# file is a JSON array, one record a line, that only ever grows.  A
# commit ending in "+" was measured with uncommitted changes on top of
# it.  Needs jq.
SEED ?= 1
TRAJECTORY = BENCH_TRAJECTORY.json
# Shell fragments trajectory and million share: HEAD_SH sets $commit,
# and APPEND_SH appends the records in $new to the trajectory.
HEAD_SH = commit=$$(git rev-parse --short HEAD); \
	git diff --quiet HEAD -- . ':(exclude)$(TRAJECTORY)' || commit=$$commit+
APPEND_SH = { echo '['; { [ ! -s $(TRAJECTORY) ] || jq -c '.[]' $(TRAJECTORY); cat $$new; } | sed '$$!s/$$/,/'; echo ']'; } > $$new.all; \
	mv $$new.all $(TRAJECTORY); rm $$new
trajectory:
	@set -e; \
	$(HEAD_SH); \
	names=$$(jq -c '[.end_to_end[].name]' BENCHMARK.json); \
	mkdir -p .bench_build; new=.bench_build/trajectory.new; : > $$new; \
	for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		bash benchmark/run.sh --workload $$w --seed $(SEED) --trace 0 | tail -n 1 | \
		jq -c --arg commit $$commit --arg workload $$w --argjson seed $(SEED) --argjson names "$$names" \
			'{commit: $$commit, seed: $$seed, workload: $$workload, failed: .failed, metrics: (.metrics as $$m | reduce $$names[] as $$n ({}; .[$$n] = $$m[$$n].value))}' >> $$new; \
	done; \
	$(APPEND_SH); \
	echo "trajectory: $$(jq length $(TRAJECTORY)) records in $(TRAJECTORY), the last $$(jq -r '.workloads | length' BENCHMARK.json) from $$commit at seed $(SEED)"

# The million-node line: `make million SEED=1` runs `osexp soak $SEED
# -nodes 1000000 -ops 1000000` twice, with the default churn and with
# -churn 0, and appends one record each (workload million-churn,
# million-steady) to BENCH_TRAJECTORY.json: failed ops, wall seconds,
# peak RSS from osexp's mem: line, ok ops, the virtual span in seconds
# and the messages sent.  Each run's stdout and stderr stay in
# .bench_build/.  About five minutes on a 2-core box, so it is not part
# of check.  Needs jq.
MILLION = soak $(SEED) -nodes 1000000 -ops 1000000
# MILLION_JQ turns one run's stdout and stderr into its record.
MILLION_JQ = \
	def secs: capture("^(?:(?<h>[0-9]+)h)?(?:(?<m>[0-9]+)m)?(?:(?<s>[0-9.]+)s)?$$") | \
		(.h // "0" | tonumber) * 3600 + (.m // "0" | tonumber) * 60 + (.s // "0" | tonumber); \
	capture("ops: [0-9]+ issued, (?<ok>[0-9]+) ok, (?<failed>[0-9]+) failed") as $$o | \
	{commit: $$commit, seed: $$seed, workload: $$workload, failed: ($$o.failed | tonumber), metrics: { \
		total_s: ($$t1 - $$t0), \
		peak_rss_mb: (capture("peak RSS (?<v>[0-9.]+) MB").v | tonumber), \
		ok: ($$o.ok | tonumber), \
		virtual_s: (capture("over (?<v>[0-9hms.]+) virtual time").v | secs), \
		msgs: (capture("traffic: (?<v>[0-9]+) msgs").v | tonumber)}}
million:
	@set -e; \
	$(HEAD_SH); \
	mkdir -p .bench_build; $(GO) build -o .bench_build/osexp ./cmd/osexp; \
	new=.bench_build/million.new; : > $$new; \
	for w in million-churn million-steady; do \
		churn=; [ $$w = million-churn ] || churn="-churn 0"; \
		t0=$$(date +%s.%N); \
		.bench_build/osexp $(MILLION) $$churn > .bench_build/$$w.out 2> .bench_build/$$w.err; \
		t1=$$(date +%s.%N); \
		cat .bench_build/$$w.out .bench_build/$$w.err | \
		jq -R -s -c --arg commit $$commit --arg workload $$w --argjson seed $(SEED) \
			--argjson t0 $$t0 --argjson t1 $$t1 '$(MILLION_JQ)' >> $$new; \
		echo "million: $$(tail -n 1 $$new)"; \
	done; \
	$(APPEND_SH); \
	echo "million: $$(jq length $(TRAJECTORY)) records in $(TRAJECTORY), the last 2 from $$commit at seed $(SEED)"
