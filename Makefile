# Tier-1 gate: every change must keep `make check` green.
GO ?= go

# Packages that fork: the fork-join parallelism (PR 3, and the fragment
# store's parallel group commit) and the leaf offload, which computes
# client signatures on par's helper goroutine and joins them on the
# kernel's.  The -race pass over these runs with GOMAXPROCS=4 so the
# pool forks and the helper exists even on small CI machines.  The
# kernel and the network themselves stay single-threaded; plain `race`
# covers the rest.
PAR_PKGS = ./internal/par/ ./internal/erasure/ ./internal/archive/ \
	./internal/blobstore/ ./internal/merkle/ ./internal/bloom/ \
	./internal/fault/ ./internal/obs/ ./internal/crypt/ \
	./internal/update/ ./internal/acl/ ./internal/core/

.PHONY: check fmt vet vet-rand build test race race-par fuzz-corpora bench bench-smoke cover cover-write soak-smoke scenarios-smoke blobstore-smoke introspect-smoke

check: fmt vet vet-rand build race race-par fuzz-corpora bench-smoke cover soak-smoke scenarios-smoke blobstore-smoke introspect-smoke

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

race:
	$(GO) test -race ./...

# Race-check the parallel kernels and sweep drivers with enough procs
# that par.Do really runs concurrent workers.
race-par:
	GOMAXPROCS=4 $(GO) test -count=1 -race $(PAR_PKGS)

# Replay the checked-in fuzz seed corpora (testdata/fuzz/...) without
# fuzzing — regression mode.  `go test -fuzz=FuzzRS ./internal/erasure`
# explores beyond them.
fuzz-corpora:
	$(GO) test -run 'Fuzz' ./internal/erasure/

bench:
	$(GO) test -bench . -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or panic, without paying measurement time.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Coverage ratchet: per-package floors live in cover/FLOORS.txt; the
# gate fails if any package regresses below its floor.  After raising
# coverage, move the floors up with `make cover-write`.
cover:
	$(GO) test -cover ./... | $(GO) run ./cmd/coverfloor -floors cover/FLOORS.txt

cover-write:
	$(GO) test -cover ./... | $(GO) run ./cmd/coverfloor -floors cover/FLOORS.txt -write

# Determinism gate for the soak engine at scale: the same seeded
# 100k-node soak must emit byte-identical metrics and summary at
# GOMAXPROCS 1 and 4.  The run also checks the kernel occupancy, crypto
# and obs rails are on stderr, and asserts a peak-RSS budget (the mem
# line osexp prints there too): with the family-indexed registry 100k
# nodes + 10k ops peak at 232–256 MB over seven runs (185k series
# attached), and the budget is the highest of them plus 10 %.  The full-scale run is
#   osexp -metrics soak.txt soak 1 -nodes 1000000 -ops 1000000
SOAK_RSS_BUDGET_MB ?= 285
soak-smoke:
	@$(GO) build -o /tmp/osexp-smoke ./cmd/osexp; \
	tmp=$$(mktemp -d); \
	GOMAXPROCS=1 /tmp/osexp-smoke -metrics $$tmp/m1.txt soak 1 -nodes 100000 -ops 10000 > $$tmp/out1.txt 2> $$tmp/mem1.txt || exit 1; \
	GOMAXPROCS=4 /tmp/osexp-smoke -metrics $$tmp/m4.txt soak 1 -nodes 100000 -ops 10000 > $$tmp/out4.txt || exit 1; \
	if ! cmp -s $$tmp/m1.txt $$tmp/m4.txt; then echo "soak-smoke: metrics differ across GOMAXPROCS"; exit 1; fi; \
	if ! cmp -s $$tmp/out1.txt $$tmp/out4.txt; then echo "soak-smoke: summaries differ across GOMAXPROCS"; exit 1; fi; \
	rss=$$(sed -n 's/.*peak RSS \([0-9.]*\) MB.*/\1/p' $$tmp/mem1.txt); \
	if [ -z "$$rss" ]; then echo "soak-smoke: no peak RSS line on stderr"; exit 1; fi; \
	if ! grep -q '^kernel: .* events run, .* timers stopped; queue mean ' $$tmp/mem1.txt; then \
		echo "soak-smoke: no kernel rail on stderr"; cat $$tmp/mem1.txt; exit 1; fi; \
	if ! grep -q '^crypto: .* signatures started .* joins .* ready .* taken .* waited, .* keys derived; certificates ' $$tmp/mem1.txt; then \
		echo "soak-smoke: no crypto rail on stderr"; cat $$tmp/mem1.txt; exit 1; fi; \
	if ! grep -q '^obs: .* series in .* families, snapshot .* ms, write .* ms, .* MB' $$tmp/mem1.txt; then \
		echo "soak-smoke: no obs rail on stderr"; cat $$tmp/mem1.txt; exit 1; fi; \
	if awk "BEGIN{exit !($$rss > $(SOAK_RSS_BUDGET_MB))}"; then \
		echo "soak-smoke: peak RSS $$rss MB exceeds budget $(SOAK_RSS_BUDGET_MB) MB"; exit 1; fi; \
	rm -rf $$tmp; \
	echo "soak-smoke: 100k nodes byte-identical at GOMAXPROCS 1 and 4; peak RSS $$rss MB within $(SOAK_RSS_BUDGET_MB) MB"

# Real-I/O gate for the blobstore backend (PR 9): a disk-backed
# 1k-node soak with the scrub/repair scheduler on, volumes in a temp
# dir.  The run must be byte-identical (metrics and summary) at
# GOMAXPROCS 1 and 4, and — the apples-to-apples guarantee behind the
# memory-vs-disk ablation — identical to the same soak on the
# in-memory backend.  Real I/O may change wall-clock, never the
# trajectory.  Both fsync disciplines sit behind the gate: per-batch
# (the default) and the scheduler's group commit (-flush 5s, what the
# benchmark's archive-disk-1k runs), whose parallel join over the dirty
# volumes is the only place the store layer forks.
blobstore-smoke:
	@$(GO) build -o /tmp/osexp-smoke ./cmd/osexp; \
	tmp=$$(mktemp -d); \
	for flush in 0 5s; do \
		run="soak 1 -nodes 1000 -ops 100000 -flush $$flush"; \
		GOMAXPROCS=1 /tmp/osexp-smoke -metrics $$tmp/m1.txt $$run -backend disk -storedir $$tmp/vols1-$$flush > $$tmp/out1.txt 2> $$tmp/err1.txt || exit 1; \
		GOMAXPROCS=4 /tmp/osexp-smoke -metrics $$tmp/m4.txt $$run -backend disk -storedir $$tmp/vols4-$$flush > $$tmp/out4.txt 2> /dev/null || exit 1; \
		GOMAXPROCS=4 /tmp/osexp-smoke -metrics $$tmp/mm.txt $$run -backend mem > $$tmp/outm.txt 2> /dev/null || exit 1; \
		if ! cmp -s $$tmp/m1.txt $$tmp/m4.txt; then echo "blobstore-smoke: disk metrics differ across GOMAXPROCS (-flush $$flush)"; exit 1; fi; \
		if ! cmp -s $$tmp/out1.txt $$tmp/out4.txt; then echo "blobstore-smoke: disk summaries differ across GOMAXPROCS (-flush $$flush)"; exit 1; fi; \
		if ! cmp -s $$tmp/m1.txt $$tmp/mm.txt; then echo "blobstore-smoke: metrics differ between mem and disk backends (-flush $$flush)"; exit 1; fi; \
		if ! cmp -s $$tmp/out1.txt $$tmp/outm.txt; then echo "blobstore-smoke: summaries differ between mem and disk backends (-flush $$flush)"; exit 1; fi; \
		if ! grep -q '^archival maintenance: scrubbed' $$tmp/out1.txt; then \
			echo "blobstore-smoke: no scrub/repair line in the report (-flush $$flush)"; cat $$tmp/out1.txt; exit 1; fi; \
		if ! grep -q '^blobstore: .* puts/flush), .* group commits' $$tmp/err1.txt; then \
			echo "blobstore-smoke: no real-I/O rail on stderr (-flush $$flush)"; cat $$tmp/err1.txt; exit 1; fi; \
	done; \
	rm -rf $$tmp; \
	echo "blobstore-smoke: 1k-node disk soak byte-identical at GOMAXPROCS 1 and 4 and to the mem backend, per-batch and group-commit"

# Introspection determinism gate (PR 10): a 10k-node flash-crowd soak
# with the replica controller on must emit byte-identical metrics and
# summary at GOMAXPROCS 1 and 4 — the control loop's EWMA folds,
# sorted candidate passes, and modeled read queues draw nothing from
# the wall clock or scheduler interleaving.  The report must carry the
# introspection and read-latency rails the flash ablation greps for.
introspect-smoke:
	@$(GO) build -o /tmp/osexp-smoke ./cmd/osexp; \
	tmp=$$(mktemp -d); \
	args="soak 1 -nodes 10000 -ops 20000 -introspect -flash 2m"; \
	GOMAXPROCS=1 /tmp/osexp-smoke -metrics $$tmp/m1.txt $$args > $$tmp/out1.txt 2> /dev/null || exit 1; \
	GOMAXPROCS=4 /tmp/osexp-smoke -metrics $$tmp/m4.txt $$args > $$tmp/out4.txt 2> /dev/null || exit 1; \
	if ! cmp -s $$tmp/m1.txt $$tmp/m4.txt; then echo "introspect-smoke: metrics differ across GOMAXPROCS"; exit 1; fi; \
	if ! cmp -s $$tmp/out1.txt $$tmp/out4.txt; then echo "introspect-smoke: summaries differ across GOMAXPROCS"; exit 1; fi; \
	if ! grep -q '^introspect: ' $$tmp/out1.txt; then \
		echo "introspect-smoke: no introspection rail in the report"; cat $$tmp/out1.txt; exit 1; fi; \
	if ! grep -q '^read latency: ' $$tmp/out1.txt; then \
		echo "introspect-smoke: no read-latency rail in the report"; cat $$tmp/out1.txt; exit 1; fi; \
	if ! grep -q 'promotes' $$tmp/out1.txt; then \
		echo "introspect-smoke: controller made no decisions"; cat $$tmp/out1.txt; exit 1; fi; \
	rm -rf $$tmp; \
	echo "introspect-smoke: 10k-node flash soak byte-identical at GOMAXPROCS 1 and 4"

# Adversarial gate: run the whole scenario catalogue — every defense
# armed (invariants must hold) and switched off (invariants must
# break) — and fail on any invariant failure.  Also checks the audited
# run's metrics dump is byte-identical at GOMAXPROCS 1 and 4.
scenarios-smoke:
	@$(GO) build -o /tmp/osexp-smoke ./cmd/osexp; \
	tmp=$$(mktemp -d); \
	GOMAXPROCS=1 /tmp/osexp-smoke -metrics $$tmp/m1.txt scenarios 1 > $$tmp/out1.txt || exit 1; \
	GOMAXPROCS=4 /tmp/osexp-smoke -metrics $$tmp/m4.txt scenarios 1 > $$tmp/out4.txt || exit 1; \
	if ! grep -q '^invariant failures: 0$$' $$tmp/out1.txt; then \
		echo "scenarios-smoke: invariant failures:"; cat $$tmp/out1.txt; exit 1; fi; \
	if ! cmp -s $$tmp/m1.txt $$tmp/m4.txt; then echo "scenarios-smoke: metrics differ across GOMAXPROCS"; exit 1; fi; \
	if ! cmp -s $$tmp/out1.txt $$tmp/out4.txt; then echo "scenarios-smoke: reports differ across GOMAXPROCS"; exit 1; fi; \
	rm -rf $$tmp; \
	echo "scenarios-smoke: all invariants hold armed, all break disarmed; dumps byte-identical at GOMAXPROCS 1 and 4"
