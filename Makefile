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

.PHONY: check fmt vet vet-rand build test race race-par bench bench-smoke cover cover-write gates reach

# Every prerequisite after vet compiles the tree and `gates` links
# osexp, so `build` is not one of them; `race` replays the checked-in
# fuzz seed corpora (testdata/fuzz) as part of `go test`.
check: fmt vet vet-rand race race-par bench-smoke cover gates

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

# Determinism gates: one table (cmd/gates) of osexp configurations —
# the 100k-node soak, the 1k-node disk and mem soaks at both fsync
# disciplines, the 10k-node introspective flash soak and the scenario
# catalogue, twelve runs — each row byte-identical (metrics dump and
# stdout summary) across GOMAXPROCS 1/4 and storage backends, with its
# rails present and, for the 100k-node row, peak RSS within budget.  A
# failure names the row and leaves both differing files on disk.
SOAK_RSS_BUDGET_MB ?= 285
GATES_OSEXP = /tmp/osexp-gates
gates:
	$(GO) build -o $(GATES_OSEXP) ./cmd/osexp
	SOAK_RSS_BUDGET_MB=$(SOAK_RSS_BUDGET_MB) $(GO) run ./cmd/gates $(GATES_OSEXP)

# Reachability census (not part of check): run the gate table and every
# experiment on a coverage-instrumented osexp and list the non-test
# functions no run reached.  DESIGN.md §15 says which of them stay and
# why.  The RSS budget is lifted: the instrumented binary is not the
# one the budget was measured on.
REACH_DIR = /tmp/osexp-reach
reach:
	rm -rf $(REACH_DIR) && mkdir -p $(REACH_DIR)/cov
	$(GO) build -cover -coverpkg=./... -o $(REACH_DIR)/osexp ./cmd/osexp
	GOCOVERDIR=$(REACH_DIR)/cov SOAK_RSS_BUDGET_MB=100000 $(GO) run ./cmd/gates $(REACH_DIR)/osexp
	GOCOVERDIR=$(REACH_DIR)/cov $(REACH_DIR)/osexp -metrics $(REACH_DIR)/m.txt -trace $(REACH_DIR)/t.jsonl all 1 > /dev/null
	@$(GO) tool covdata func -i=$(REACH_DIR)/cov | awk '$$NF == "0.0%" { n++; print } END { printf "reach: %d functions linked into osexp were reached by no run\n", n }'
