#!/usr/bin/env bash
# Machine-readable benchmark for the current PR: end-to-end coupled
# steps/sec through the unified scenario driver with the amortized
# solver setup and parallel material-point pipeline. Runs the sinker and
# rayleigh-taylor scenarios for a few full time steps (MPM projection,
# rheology, nonlinear Stokes, free surface) on the shared-memory backend
# and rank-distributed over a 2x1x1 simulated world, and writes all four
# run records — per-step wall time, the per-stage breakdown
# (stokes_setup_s / stokes_krylov_s / mpm_project_s / rheology_s /
# advect_s / ale_s / thermal_s), the stokes_setup_reused counter, and
# Newton/Krylov iteration counts — to BENCH_PR9.json.
#
# Usage: scripts/bench.sh [outfile] [m] [steps]
#   outfile   destination JSON (default BENCH_PR9.json in the repo root)
#   m         elements per direction (default 16)
#   steps     time steps per backend (default 3)
#
# Previous PR benchmarks remain available:
#   BENCH_PR8: scripts/bench.sh BENCH_PR8.json 16 3 (sinker only, pre-amortization)
#   BENCH_PR7: its emitter (ptatin-opcost -vcycle) is gone; the mg.* metrics of bench/ supersede it
#   BENCH_PR6: go run ./cmd/ptatin-scaling -sweep -json
#   BENCH_PR5: go run ./cmd/ptatin-scaling -json -ranks 2x2x1 -grids 8,16
#   BENCH_PR4: go run ./cmd/ptatin-opcost -json
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_PR9.json}"
m="${2:-16}"
steps="${3:-3}"

bin=$(mktemp -u /tmp/ptatin-run-bench.XXXXXX)
go build -o "$bin" ./cmd/ptatin-run

sink_shared=$(mktemp); sink_dist=$(mktemp)
rt_shared=$(mktemp); rt_dist=$(mktemp)
trap 'rm -f "$bin" "$sink_shared" "$sink_dist" "$rt_shared" "$rt_dist"' EXIT

run_pair() {
    local scen="$1" shared_out="$2" dist_out="$3"
    "$bin" -scenario "$scen" -res "$m" -steps "$steps" \
        -json "$shared_out" > /dev/null
    "$bin" -scenario "$scen" -res "$m" -steps "$steps" \
        -ranks 2x1x1 -json "$dist_out" > /dev/null
}

run_pair sinker "$sink_shared" "$sink_dist"
run_pair rayleigh-taylor "$rt_shared" "$rt_dist"

# Bundle the four run records into one file.
{
    echo '{'
    echo '  "sinker_shared":'
    sed 's/^/  /' "$sink_shared"
    echo '  ,'
    echo '  "sinker_distributed":'
    sed 's/^/  /' "$sink_dist"
    echo '  ,'
    echo '  "rayleigh_taylor_shared":'
    sed 's/^/  /' "$rt_shared"
    echo '  ,'
    echo '  "rayleigh_taylor_distributed":'
    sed 's/^/  /' "$rt_dist"
    echo '}'
} > "$out"

echo "wrote $out:"
head -n 14 "$out"
