#!/usr/bin/env bash
# Entry point named by BENCHMARK.json.  Builds the benchmark from the
# checkout's own source and runs it with the driver's arguments
# (--workload, --seed, --seconds, --trace).  Everything this writes —
# Go's build cache, the binary, scratch volumes and dumps — stays under
# .bench_build/ in the checkout.  Outside a checkout of the repository
# (no go.mod, no internal/) the build fails and so does this script.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/soakbench" ./benchmark
exec "$build/soakbench" -tmp "$build/tmp" "$@"
