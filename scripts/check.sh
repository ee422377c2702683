#!/usr/bin/env bash
# Tier-1 gate for the repository (see README.md): formatting, vet, build,
# the reachability pass (no function under internal/ or cmd/ that no
# non-test code reaches, beyond the reasons of scripts/unreached/keep.txt),
# a cross-build of the portable (non-amd64) file set, a guard that no
# assembly file fuses a multiply-add or returns to Go with dirty upper YMM
# halves, the full test suite, a short-mode pass under the race detector, a
# racy re-run of the comm fault/recovery protocol tests, the benchmark
# module's own vet and tests (bench/ is a separate module that the root go
# build and go test skip), a scenario smoke of every spec on both backends
# (which fails on a point location accepted from an unconverged Newton), a
# check that the runtime operator selector stays gone and its flag values
# are refused, a check that the front door stays one (two binaries, one
# model constructor, one halo apply, docs that name commands and
# identifiers that exist), a worker-count invariance run of rift and of
# sinker-swarm at 8^3 (its checkpoints byte-equal at 1 and 2 workers), a
# rank-count invariance check of the 64-rank scaling sweep, a 64-rank solve
# that must not retransmit, a guard that the fabric keeps one mailbox per
# rank, a one-iteration smoke run of the apply-path, V-cycle and
# element-kernel benchmarks, and short fuzz smoke passes over the
# decomposition index math, the checkpoint decoder and the assembly
# contractions.
# Every PR must leave this script exiting 0.
#
# Usage: scripts/check.sh  (from the repository root or any subdirectory)
set -euo pipefail

cd "$(dirname "$0")/.."

# named_tests FLAGS 'NameA|NameB|…' PKG… runs `go test FLAGS -run` over the
# alternatives in the packages, after checking each alternative against
# `go test -list`: -run of a name that no longer exists is "no tests to
# run", exit 0, so a moved or deleted test would otherwise drop out of its
# stage silently.
named_tests() {
    local flags=$1 names=$2 have alt
    shift 2
    have=$(go test -list 'Test' "$@")
    for alt in ${names//|/ }; do
        if ! grep -Eq "$alt" <<<"$have"; then
            echo "check.sh: no test matches '$alt' in $*" >&2
            exit 1
        fi
    done
    # shellcheck disable=SC2086
    go test $flags -run "$names" "$@"
}

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

# Type-checked, so a name collision cannot hide a caller-less function the
# way it hides one from grep; a keep line that holds nothing back fails too.
echo "== reachability: every function of internal/ and cmd/ is reached by non-test code or kept for a written reason =="
go run ./scripts/unreached

# The element kernel has an assembly encoding on amd64 only: the other file
# set (tensor_noasm.go, vector_noasm.go) must keep compiling. No network:
# the module has no dependencies.
echo "== portable file set: GOARCH=arm64 build, vet of internal/fem =="
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/fem

# Bit-identity of the two encodings rests on the assembly rounding after
# every multiply, as the Go bodies do on amd64.
echo "== assembly: no fused multiply-add; VZEROUPPER before every RET to Go of a routine that touched a YMM register =="
if grep -rnE 'VFN?M(ADD|SUB)' --include='*.s' .; then
    echo "check.sh: a fused multiply-add in an assembly file (above)" >&2
    exit 1
fi
find . -name '*.s' -print0 | xargs -0 awk '
    /^TEXT/ { gocall = ($2 ~ /·/); ymm = 0 }
    /[ \t,(]Y[0-9]|CALL/ { ymm = 1 }
    /^\tRET/ && gocall && ymm && prev !~ /VZEROUPPER/ {
        printf "check.sh: %s:%d: RET to Go without VZEROUPPER\n", FILENAME, FNR > "/dev/stderr"; bad = 1
    }
    /^\t[A-Z]/ { prev = $0 }
    END { exit bad }'

echo "== go test =="
go test ./...

echo "== operator representation equivalence =="
named_tests -count=1 '^TestOpEquivalence$' ./internal/op

echo "== go test -short -race =="
go test -short -race ./...

echo "== fault/recovery protocol under -race =="
named_tests -race 'Fault|Reliable|Migrate|Recv|TestFaultFreeExchangeNeverRetries|TestMailbox' ./internal/comm ./internal/mpm

echo "== 64-rank fault-injection soak under -race (bounded: -short) =="
named_tests '-short -race' 'TestSoakReliableExchange64Ranks' ./internal/comm

echo "== pipelined Krylov + coarse agglomeration under -race =="
named_tests -race 'TestPipelined|TestDistMGAgg|TestAllReduceSumVec' ./internal/krylov ./internal/mg ./internal/comm

echo "== one stack: rank-count invariance, pipelined GCR through the rank reducer, rank transfers bitwise == shared, under -race =="
named_tests -race \
    'TestRankCountInvariantClassical|TestDistributedSolvePipelinedAgg|TestDistRestrictBitwiseShared|TestDistMGMatchesShared' \
    ./internal/stokes ./internal/mg

# The 16^3 pin of the 62-vs-37 takes ~9 minutes under the race detector (25 s
# without); the stage above races the same cgs2 path at 8^3.
echo "== pipelined GCR within ±2 iterations of classical at 1 and 8 ranks (16^3) =="
named_tests -count=1 'TestPipelinedGCRRankCountInvariant' ./internal/stokes

echo "== assembly element kernel == its Go bodies (both encodings, the same recorded bits) + f32/f64 equivalence + the level layout table + blocked == full-grid smoother + gather restriction bit-identity + one zero-guess coarse solve per cycle under -race =="
named_tests -race \
    'TestContractionsMatchGo|TestTensorGradsScatterMatchGo|TestResidentElementMatchesGo|TestVCycleBothKernels|TestOpEquivalence|TestF32OpEquivalence|TestLayout|TestCoupledOperatorFollowsLayout|TestResidentMatchesTensor|TestResidentDeterminism|TestBlockedChebyshevBitIdentical|TestBlockedWaveWidth|TestChebyshevNoFinalResidualSameX|TestMGBlockedVCycleBitIdentical|TestRestrictGatherBitIdentical|TestVCycleApplyCountOnCSRLevels|TestCoarsestAlwaysZeroGuess|TestRegistryHierarchyIsResidentAndBlocked|TestMGF32Converges|TestDistMGBlockedMatchesSerial|TestBlockedSolveMatchesUnblocked|TestGalerkinInputLevelTracksRefresh|TestF32PreconditionedConvergence|TestContextKeyCoversConfig' \
    ./internal/op ./internal/fem ./internal/mg ./internal/stokes

# -count=10: the claims, waits and helper hand-offs of a job interleave
# differently run to run; the 8^3 cases of TestResidentDeterminism,
# TestBlockedChebyshevBitIdentical and TestMGBlockedVCycleBitIdentical (the
# size at which pool workers do take items) are raced in the stage above.
echo "== phased pool jobs: phase order, every item once, no helper / nested / concurrent / panicking, idle once they return, parts, helper-share totals under -race =="
named_tests '-race -count=10' \
    'TestPhasedOrderAndCoverage|TestPhasedNoHelper|TestPhasedNested|TestPhasedConcurrent|TestPhasedPanic|TestIdleAfterJobs|TestRunParts|TestCounts' \
    ./internal/par

echo "== parallel ASM == serial, numeric refresh == rebuild, lazy FGMRES basis == eager, in-slot GCR == clone-per-iteration and a lent workspace changes nothing, one method dispatcher under -race =="
named_tests -race \
    'TestASMParallelMatchesSerial|TestASMRefreshMatchesNew|TestGMRESLazyBasisSameIterates|TestWorkspaceSameIteratesNoRealloc|TestSolveRejectsUnknownMethod' \
    ./internal/krylov

echo "== geometry store == per-consumer Jacobians, partial RAS back-sweep == full, one coefficient update per accepted state, the tables' solver recipe == what Prepare hands over, set-up stage timers under -race =="
named_tests -race \
    'TestGeometryStoreBitwise|TestILUBackSweepFromMatchesSolve|TestASMRestrictedPartialSweepBitwise|TestPrepareSkipsRepeatedCoefficientUpdate|TestStokesConfigIsWhatPrepareHands|TestSetupStageTimersAttributeRefresh' \
    ./internal/fem ./internal/la ./internal/krylov ./internal/model ./internal/stokes

echo "== parallel MPM + amortized solver setup under -race =="
named_tests -race \
    'TestProjectorMatchesSerialAnyWorkers|TestProjectorInvalidate|TestLocateAllParallelMatchesSerial|TestBucketedNearestMatchesScan|TestCachedSetupMatchesColdBuild|TestKrylovWarmStart' \
    ./internal/mpm ./internal/model

echo "== point loops: seeded Newton == full-evaluation walk, element frames == per-point arithmetic, cursor evaluators == per-point forms, plastic pass over yielding lithologies == over all, under -race =="
named_tests -race \
    'TestLocateSeededBitwise|TestElementFrameBitwise|TestElementCursorBitwise|TestPlasticPassSkipsNonYielding' \
    ./internal/fem ./internal/mpm ./internal/model

echo "== benchmark module: vet + its own tests =="
(cd bench && go vet . && go test .)

echo "== scenario smoke: every registered spec, 2 steps, shared + distributed; no point located by an unconverged Newton =="
go run ./cmd/ptatin-run -smoke -workers 2

echo "== no runtime selector: nothing of op.Auto outside tests; -op auto and -op mf32 refused before any solve =="
if grep -rnE 'op\.Auto|AutoOp|op\.Policy|SelectionReport' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the runtime operator selector is back in non-test Go (above)" >&2
    exit 1
fi
refused() { # refused OP 'MESSAGE': ptatin-run -op OP exits non-zero saying MESSAGE
    local out
    if out=$(go run ./cmd/ptatin-run -scenario sinker -small -op "$1" 2>&1) || ! grep -qF -- "$2" <<<"$out"; then
        echo "check.sh: ptatin-run -op $1 should fail with '$2', got:" >&2
        echo "$out" >&2
        exit 1
    fi
}
refused auto 'selector "auto" was removed'
refused mf32 '-precision f32'

echo "== front door: two binaries, models only from compiled specs, the halo apply only the solver's, docs naming commands that exist =="
if [ "$(ls cmd | xargs)" != "ptatin-run ptatin-tables" ]; then
    echo "check.sh: cmd/ holds more than ptatin-run and ptatin-tables: $(ls cmd | xargs)" >&2
    exit 1
fi
# -w: TestDistributedViscousApply keeps its name (it now drives Dist.ApplyElements).
if grep -rnwE 'NewSinker|NewRift|SinkerSpheres|DistributedViscousApply' --include='*.go' .; then
    echo "check.sh: a constructor shim or the PR-2 halo apply is back (above)" >&2
    exit 1
fi
if grep -rnE 'NodeOwner|ownerElem' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the element-based ownership oracle is in non-test Go (above)" >&2
    exit 1
fi
for dir in $(grep -ohE 'cmd/ptatin-[a-z]+' README.md DESIGN.md .claude/skills/verify/SKILL.md | sort -u); do
    if [ ! -d "$dir" ]; then
        echo "check.sh: README.md, DESIGN.md or the verify skill names $dir, which does not exist" >&2
        exit 1
    fi
done
# A backticked `pkg.Identifier` in README or DESIGN is defined in that
# package: as a func, method, type, var or const, or as an entry of a
# block or a struct field (a line that starts with it after one tab).
pkgs=$(ls internal | xargs | tr ' ' '|')
grep -ohE "\`($pkgs)\.[A-Z][A-Za-z0-9_]*" README.md DESIGN.md | tr -d '`' | sort -u | while read -r id; do
    if ! grep -qE "^(func (\([^)]*\) )?|type |var |const |	)${id#*.}\b" "internal/${id%%.*}"/*.go; then
        echo "check.sh: README.md or DESIGN.md names \`$id\`, which no Go file of internal/${id%%.*} defines" >&2
        exit 1
    fi
done
# DESIGN's experiment index: every `ptatin-…` cell parses (flags included)
# up to -h, every `Benchmark…` cell lists a benchmark of the root package.
benchmarks=$(go test -list 'Benchmark' .)
awk '/^## Experiment index/,/^Shape expectations/' DESIGN.md | grep -oE '`[^`]+`' | tr -d '`' | while read -r cell; do
    case $cell in
    ptatin-*)
        # shellcheck disable=SC2086
        if ! go run ./cmd/$cell -h >/dev/null 2>&1; then
            echo "check.sh: DESIGN.md experiment index: '$cell -h' does not parse" >&2
            exit 1
        fi ;;
    Benchmark*)
        if ! grep -Eq "^${cell//\*/.*}\$" <<<"$benchmarks"; then
            echo "check.sh: DESIGN.md experiment index: no benchmark matches '$cell'" >&2
            exit 1
        fi ;;
    esac
done

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

echo "== sinker-swarm at 8^3 (the size at which pool workers take items of every job): checkpoints identical at 1 and 2 workers =="
ckdir=$(mktemp -d)
for w in 1 2; do
    go run ./cmd/ptatin-run -scenario sinker-swarm -res 8 -steps 2 -workers "$w" \
        -checkpoint-every 2 -checkpoint "$ckdir/w$w.chkpt" | grep -v '^#'
done
if ! cmp "$ckdir/w1.chkpt" "$ckdir/w2.chkpt"; then
    echo "sinker-swarm -res 8: the checkpoint after 2 steps differs between -workers 1 and -workers 2" >&2
    exit 1
fi
rm -r "$ckdir"

echo "== rank-distributed solve under -race =="
go run -race ./cmd/ptatin-tables table2 -ranks 2x1x1 -grids 8

echo "== scaling sweep to 64 ranks: the strong-16 rows take the same iterations on 1, 8 and 64 ranks =="
sweep=$(go run ./cmd/ptatin-tables sweep -pipelined -sweep-max-ranks 64)
echo "$sweep"
strong=$(awk '$1 == "strong" && $2 == 16 && $4 ~ /^[0-9]+$/ {print $5}' <<<"$sweep")
if [ "$(wc -w <<<"$strong")" -ne 3 ] || [ "$(sort -u <<<"$strong" | wc -l)" -ne 1 ]; then
    echo "scaling sweep: want three strong-16 rows (1x1x1, 2x2x2, 4x4x4) with one iteration count, got:" $strong >&2
    exit 1
fi

# No fault is injected, so a retransmission is a timeout that fired on
# scheduling (PR 23: 9 026 of them on this run).
echo "== 64 ranks on the default retry policy: 0 retries on every rank line, the iterations of 2 ranks =="
big=$(go run ./cmd/ptatin-tables table2 -ranks 4x4x4 -grids 16)
its64=$(awk '$1 == 16 {print $3}' <<<"$big")
its2=$(go run ./cmd/ptatin-tables table2 -ranks 2x1x1 -grids 16 | awk '$1 == 16 {print $3}')
if [ "$(grep -c ' 0 retries$' <<<"$big")" -ne 64 ] || [ "$(grep -c ' retries$' <<<"$big")" -ne 64 ]; then
    echo "table2 -ranks 4x4x4: want 64 rank lines, each with 0 retries, got:" >&2
    grep ' retries$' <<<"$big" | grep -v ' 0 retries$' >&2
    exit 1
fi
if [ -z "$its64" ] || [ "$its64" != "$its2" ]; then
    echo "table2 -grids 16: iterations on 4x4x4 ($its64) and on 2x1x1 ($its2) differ" >&2
    exit 1
fi
grep -E '^ *16 ' <<<"$big"

echo "== one mailbox per rank: no per-sender channel, poll interval or mailbox sweep in non-test Go =="
if grep -rnE 'drainStray|strayPollInterval|\.mail\[' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the polled per-sender mailboxes are back (above)" >&2
    exit 1
fi

# VCycle: the 8^3 and 16^3 sinker V-cycle and its layers at 1 and 2
# workers — small-grid parallel efficiency as a tracked number.
# ElementKernel: the resident element kernel, assembly against Go, in
# ns/element and GF/s (a smoke at 1x; -benchtime 200000x for numbers).
echo "== benchmark smoke =="
go test -run='^$' -bench='Apply|VCycle|ElementKernel' -benchtime=1x ./...

echo "== fuzz smoke =="
go test ./internal/comm -run='^$' -fuzz=FuzzDecompIndexMath -fuzztime=5s
go test ./internal/chkpt -run='^$' -fuzz=FuzzDecode -fuzztime=5s
go test ./internal/fem -run='^$' -fuzz=FuzzContractions -fuzztime=5s

echo "OK"
