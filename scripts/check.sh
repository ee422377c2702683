#!/usr/bin/env bash
# Tier-1 gate for the repository (see README.md): formatting, vet, build,
# the full test suite, a short-mode pass under the race detector, a racy
# re-run of the comm fault/recovery protocol tests, the benchmark module's
# own vet and tests (bench/ is a separate module that the root go build
# and go test skip), a scenario smoke of every spec on both backends and
# a worker-count invariance run of rift, a one-iteration smoke run of the
# apply-path benchmarks, and short fuzz smoke passes over the decomposition
# index math and the checkpoint decoder.
# Every PR must leave this script exiting 0.
#
# Usage: scripts/check.sh  (from the repository root or any subdirectory)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== operator representation equivalence =="
go test -run='^TestOpEquivalence$' -count=1 ./internal/op

echo "== go test -short -race =="
go test -short -race ./...

echo "== fault/recovery protocol under -race =="
go test -race -run 'Fault|Reliable|Migrate|Recv' ./internal/comm ./internal/mpm

echo "== 64-rank fault-injection soak under -race (bounded: -short) =="
go test -short -race -run 'TestSoakReliableExchange64Ranks' ./internal/comm

echo "== pipelined Krylov + coarse agglomeration under -race =="
go test -race -run 'TestPipelined|TestDistMGAgg|TestAllReduceSumVec' ./internal/krylov ./internal/mg ./internal/comm

echo "== f32/f64 equivalence + blocked == full-grid smoother + gather restriction bit-identity under -race =="
go test -race \
    -run 'TestOpEquivalence|TestF32OpEquivalence|TestAutoCacheKeyedByPrecision|TestResidentMatchesTensor|TestResidentDeterminism|TestBlockedChebyshevBitIdentical|TestBlockedWaveWidth|TestChebyshevNoFinalResidualSameX|TestMGBlockedVCycleBitIdentical|TestRestrictGatherBitIdentical|TestVCycleApplyCountOnCSRLevels|TestRegistryHierarchyIsResidentAndBlocked|TestMGF32Converges|TestDistMGBlockedMatchesSerial|TestBlockedSolveMatchesUnblocked|TestGalerkinInputLevelTracksRefresh|TestF32PreconditionedConvergence' \
    ./internal/op ./internal/fem ./internal/mg ./internal/stokes

echo "== parallel ASM == serial, numeric refresh == rebuild, lazy FGMRES basis == eager under -race =="
go test -race \
    -run 'TestASMParallelMatchesSerial|TestASMRefreshMatchesNew|TestGMRESLazyBasisSameIterates' \
    ./internal/krylov

echo "== parallel MPM + amortized solver setup under -race =="
go test -race \
    -run 'TestProjectorMatchesSerialAnyWorkers|TestProjectorInvalidate|TestLocateAllParallelMatchesSerial|TestBucketedNearestMatchesScan|TestCachedSetupMatchesColdBuild|TestKrylovWarmStart' \
    ./internal/mpm ./internal/model

echo "== benchmark module: vet + its own tests =="
(cd bench && go vet . && go test .)

echo "== scenario smoke: every registered spec, 2 steps, shared + distributed =="
go run ./cmd/ptatin-run -smoke -workers 2

echo "== rift at 3 workers (block groups that do not divide the 8 blocks): its identical to 1 worker =="
its() { go run ./cmd/ptatin-run -scenario rift -small -steps 2 -workers "$1" | awk -F', ' '!/^#/ {print $1, $4, $5}'; }
its1=$(its 1)
its3=$(its 3)
if [ -z "$its1" ] || [ "$its1" != "$its3" ]; then
    echo "rift -small (step, nonlinear its, Krylov its) differ between -workers 1 and -workers 3:" >&2
    printf '%s\n--\n%s\n' "$its1" "$its3" >&2
    exit 1
fi
echo "$its3"

echo "== rank-distributed solve under -race =="
go run -race ./cmd/ptatin-scaling -ranks 2x1x1 -grids 8

echo "== scaling sweep smoke (bounded rank count) =="
go run ./cmd/ptatin-scaling -sweep -sweep-max-ranks 8

echo "== benchmark smoke =="
go test -run='^$' -bench=Apply -benchtime=1x ./...

echo "== fuzz smoke =="
go test ./internal/comm -run='^$' -fuzz=FuzzDecompIndexMath -fuzztime=5s
go test ./internal/chkpt -run='^$' -fuzz=FuzzDecode -fuzztime=5s

echo "OK"
