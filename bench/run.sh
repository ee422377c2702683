#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the
# checkout root and runs it with the given arguments from that root. The
# Go build cache and the go command's own counter files (it keeps them
# under the user configuration directory) go there too, so nothing is
# written outside the checkout.
# BENCHMARK.json's command is `bash bench/run.sh`.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/ptatin-bench" .)
cd "$root"
exec "$build/ptatin-bench" "$@"
