#!/usr/bin/env bash
# Tier-1 gate for the repository (see README.md): formatting, vet, build,
# the reachability pass (no function under internal/ or cmd/ that no
# non-test code reaches, beyond the reasons of scripts/unreached/keep.txt),
# a cross-build of the portable (non-amd64) file set, a guard that no
# assembly file fuses a multiply-add or returns to Go with dirty upper YMM
# halves, the full test suite, a short-mode pass under the race detector, the
# fused Krylov update-and-reduce against its two steps, the element matrix
# of the level-1 assembly against its Go body and the sweep-ordered ILU(0)
# against its CSR form in a GOAMD64=v3 build, a
# racy re-run of the neighbour exchange and mailbox tests, a
# guard that the retransmission protocol and fault injector stay gone, a
# guard that the step record stays the one per-step record (no pool or
# slab probe, cursor counts, stage-time copy or set-up reuse counter), a
# guard that every stage of a step reads the one step width (Workers x
# ranks), the
# benchmark
# module's own vet and tests (bench/ is a separate module that the root go
# build and go test skip), a scenario smoke of every spec on both backends
# (which fails on a point count that does not add up or an element below
# its spec's population floor), a
# check that the runtime operator selector stays gone and its flag values
# are refused, a check that the solver keeps one precision, a check that
# every Krylov solve keeps one orthogonalisation (no pipelined variant, and
# -pipelined refused by both binaries), a check that the coarse solve keeps
# one gather to rank 0 (no agglomeration or fabric pricing inside the
# solve, and -coarse-roots and sweep -agg refused), a check that the front door stays
# one (two binaries, one model constructor, one halo apply, docs that name
# commands that exist), a check that
# README.md, DESIGN.md and the verify skill name only identifiers, tests and
# -run patterns that exist (outside names in scripts/docnames/allow.txt),
# that every cited DESIGN.md/EXPERIMENTS.md section is a heading and that
# every EXPERIMENTS.md section is cited from DESIGN.md, a
# worker-count invariance run of rift and of sinker-swarm at 8^3 (its
# checkpoints byte-equal at 1 and 2 workers), a
# set of allocation budgets (steady sinker and rift steps, an ASM rebuilt
# and an SA-AMG hierarchy refreshed into their own storage) and a check
# that a rank keeps its Krylov vectors packed on its windows (run without
# the race detector) and the tests that kept rank views, a refreshed
# set-up and a restore onto another mesh give a cold build's bits (run
# under it), a guard that internal/la builds no map, a
# rank-count invariance check of the 64-rank scaling sweep with every row
# solved, a 64-rank solve with every rank reporting that takes the
# iterations of 2 ranks, a guard that the fabric keeps one mailbox per rank
# and no clock in its liveness, a
# guard that no matrix-free level keeps an assembled matrix for the
# Galerkin product below it, a guard that the coloured scatter and its
# colour schedule stay out of internal/fem's non-test code and that it
# keeps one element loop (no slabApply, resident scratch or sync.Pool)
# whose gathers and scatters move node runs (no per-node gatherVec or
# scatterAdd outside the tests that hold the run table to them), a
# guard that set-up builds only what a solve runs (no smoothOnly coarse
# path in internal/mg, no point migration in internal/mpm, no panic in
# internal/op's non-test Go, no one-value CoarseBlocks, OmegaScale or
# MaxCoarseSize option in internal/amg), a guard that Krylov solves keep
# only what a run reaches (no entry exchanger, stagnation window or second
# CG workspace in internal/krylov, no error sink in internal/mg or
# internal/stokes: a rank's failures are recorded in internal/comm), a
# guard that each solver contract is one interface (no fem.Operator,
# ResidualOperator, Refresher, op.Refresh( or FusedReducer, ApplyFreeRows
# declared on fem.TensorOp alone, no Spans field in krylov.Params, no
# Jacobi asserted out of Chebyshev.M), a guard that a moved mesh is read,
# not announced (no geomDirty, refreshGeometry, NewCoupling or
# InvalidateGeometry call in the root module's non-test Go, no geomChanged
# in internal/stokes), a guard that a rank's rows are spans and its packets values (no Node field,
# fits( scan or OwnedNodes in internal/comm's non-test Go, no allreduces or
# exchanges counter beside their timers, no node id in internal/perfmodel's
# halo bytes), a one-iteration smoke run of the apply-path, V-cycle, element-kernel,
# element-matrix and rank-sync benchmarks, and short fuzz smoke passes over the
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

echo "== neighbour exchange, mailbox, halo rings against a slow receiver, a collective-order mismatch and an allreduce facing a broadcast as errors under -race =="
named_tests -race \
    'TestCollectiveOrderMismatchIsAnError|TestAllReduceOrderMismatchIsAnError|TestExchangeReliableBasic|TestExchangeReliableStallRecovery|TestExchangeDeadlockNamesSilentPeer|TestExchangeReliablePreservesCollectivePayloads|TestMailbox|TestRingsOutlastSlowReceiver' \
    ./internal/comm

# Every message is delivered once and in order per source, so no exchange
# acknowledges, checksums or retransmits, and no fault is injected.
echo "== no retransmission: no fault injector, acknowledgement, payload checksum or send history in non-test Go =="
if grep -rnE 'FaultPlan|envAck|envResend|rememberSent|Checksummer|Corrupter|comm\.Retries' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the retransmission protocol or the fault injector is back in non-test Go (above)" >&2
    exit 1
fi

# The step writes its StepStats record as it runs; nothing else keeps a
# copy of what it holds (helper share, stage times, set-up reuse) or of
# what Problem.SlabStats reports.
echo "== one step record: no pool or slab probe, cursor counts, stage-time copy or set-up reuse counter in non-test Go =="
if grep -rnE 'par\.Probe|PointStats|TakePointStats|stageTimes' --include='*.go' . | grep -v '_test\.go:' ||
    grep -rnE 'SetTelemetry\(|type (Fem)?Probe\b' --include='*.go' internal/par internal/fem | grep -v '_test\.go:' ||
    grep -rnw 'Reused' --include='*.go' internal/stokes | grep -v '_test\.go:'; then
    echo "check.sh: a second copy of the step record's numbers is back in non-test Go (above)" >&2
    exit 1
fi

echo "== coarse gather to rank 0 + vector allreduce under -race =="
named_tests -race 'TestGatherSolveBroadcast|TestAllReduceSumVec' ./internal/comm

echo "== one stack: rank-count invariance, a 2x2x1 solve at the fused recurrence's allreduce count, rank transfers bitwise == shared and one worker wide over a 4-wide hierarchy, the rank's fused Gram-Schmidt sweep == update then reduce, a 2x1x1 step Workers x Ranks wide with the same bits and step record at 1 and 2 workers, a rank solve whose first exchange is its first apply, a rank that disagrees on the collective order recorded on both ranks, under -race =="
named_tests -race \
    'TestRankCountInvariantClassical|TestDistributedSolveClassicalAgg|TestDistRestrictBitwiseShared|TestDistMGMatchesShared|TestCoupledReducerFusedSweepBitwise|TestStepRunsWorkersTimesRanksWide|TestStepWidthBitIdentical|TestRankSolveFirstExchangeIsItsApply|TestDistMGReportsDisagreeingRank' \
    ./internal/stokes ./internal/mg ./internal/model

# A step has one width, Workers x the world's ranks (Model.workers): no
# stage of internal/model sizes its pool from Workers alone.
echo "== one step width: no max(1, m.Workers) in non-test Go of internal/model =="
if grep -rnF 'max(1, m.Workers)' --include='*.go' internal/model | grep -v '_test\.go:'; then
    echo "check.sh: a stage of internal/model runs Workers wide instead of the step's width (above)" >&2
    exit 1
fi

# The allocation budgets run without the race detector, which allocates on
# its own account; the tests that kept rank views, a refreshed set-up, the
# problem's one set of coupling blocks and a restore onto another mesh
# give a cold build's bits run under it.
echo "== steady steps allocate nothing: a 2-rank solve on a seen world shape < 64 KiB, a steady step <= 1/4 of the sinker's (2x1x1) and the rift's bytes before their set-up storage was kept and <= 2x the sinker's now (shared), an ASM rebuilt onto a pattern that fits allocates nothing beyond its pool dispatch, an SA-AMG refresh <= 2 % of New's bytes, a rank's Krylov vectors packed on its windows (2x1x1 and 2x2x2, at most 3 full-length apply buffers), without -race; kept rank views == cold ones, refreshed set-up == cold build, one coupling per problem rebuilt in place after a move, a restore onto another mesh == a fresh restore, one Krylov record, the stack 4x4 inverse == Factor, under -race =="
named_tests -count=1 'TestAllocBudgetDistributedSolve|TestAllocBudgetSteadyStep|TestAllocBudgetASMRebuild|TestAllocBudgetSARefresh|TestRankKrylovStorageIsWindowed' ./internal/model ./internal/stokes ./internal/krylov ./internal/amg
named_tests '-short -race' \
    'TestReusedRankViewsMatchCold|TestCachedSetupMatchesColdBuild|TestColdStepSharesCoupling|TestRestoreSolvesOnTheRestoredMesh|TestKrylovRecordedOnce|TestAugmentMatchesBuilder|TestInvert4MatchesFactorSolve' \
    ./internal/stokes ./internal/model ./internal/op ./internal/la

echo "== assembly element kernel == its Go bodies (both encodings, the same recorded bits) + mf32 against the f64 tensor kernel + the level layout table + blocked == full-grid smoother + gather restriction bit-identity + one zero-guess coarse solve per cycle + the viscous block built plane by plane == the colour-order scatter and A·P streamed plane by plane (rows filled by concurrent workers) == the scattered product and the refreshed coarse Galerkin matrix == a cold build + the residual over Auu of every kind == the tensor kernel's + the run gathers, scatters, block and subset applies and divergence rows == their per-node forms, the one-pass gradient and divergence == ApplyGAdd then ApplyD (and the raw residual pass == ApplyGAdd then the raw rows), every registered hierarchy ending in the coarse solve, under -race =="
named_tests -race \
    'TestRunTableMatchesPerNode|TestApplyGDMatchesGAddThenD|TestContractionsMatchGo|TestTensorGradsScatterMatchGo|TestResidentElementMatchesGo|TestViscousMatrixMatchesGo|TestVCycleBothKernels|TestOpEquivalence|TestF32OpEquivalence|TestLayout|TestCoupledOperatorFollowsLayout|TestResidentMatchesTensor|TestResidentDeterminism|TestBlockedChebyshevBitIdentical|TestBlockedWaveWidth|TestChebyshevNoFinalResidualSameX|TestMGBlockedVCycleBitIdentical|TestRestrictGatherBitIdentical|TestVCycleApplyCountOnCSRLevels|TestCoarsestAlwaysZeroGuess|TestRegistryHierarchyIsResidentAndBlocked|TestHierarchyEndsInCoarseSolve|TestDistMGBlockedMatchesSerial|TestBlockedSolveMatchesUnblocked|TestViscousAssemblyMatchesScatter|TestViscousAPMatchesAssembledProduct|TestCoarseGalerkinTracksRefresh|TestContextKeyCoversConfig|TestResidualIsTheTensorKernel' \
    ./internal/op ./internal/fem ./internal/mg ./internal/stokes

# -count=10: the claims, waits and helper hand-offs of a job interleave
# differently run to run; the 8^3 cases of TestResidentDeterminism,
# TestBlockedChebyshevBitIdentical and TestMGBlockedVCycleBitIdentical (the
# size at which pool workers do take items) are raced in the stage above.
echo "== phased pool jobs: phase order, every item once, no helper / nested / concurrent / panicking, idle once they return, parts, helper-share totals under -race =="
named_tests '-race -count=10' \
    'TestPhasedOrderAndCoverage|TestPhasedNoHelper|TestPhasedNested|TestPhasedConcurrent|TestPhasedPanic|TestIdleAfterJobs|TestRunParts|TestCounts' \
    ./internal/par

echo "== parallel ASM == serial, numeric refresh == rebuild, an ASM rebuilt onto another pattern == NewASM, an SA-AMG hierarchy refreshed into its own levels == New (and again after a refresh that failed), the sweep-ordered ILU(0) == the CSR form (random patterns, a refused refactor, the rift's coarse subdomains), lazy FGMRES basis == eager, in-slot GCR == clone-per-iteration and a lent workspace changes nothing, a solve packed on windows == the compact solve (all four methods), one method dispatcher, a poisoned residual entry caught by its norm, fused update-and-reduce == update then reduce (kernel and all four methods), under -race =="
named_tests -race \
    'TestASMParallelMatchesSerial|TestASMRefreshMatchesNew|TestASMRebuildMatchesNew|TestSARefreshMatchesNew|TestSARefreshAfterFailure|TestILU0MatchesCSRFormBitwise|TestILU0RefactorWrongPattern|TestILU0RiftSubdomainsMatchCSRForm|TestMatMulNumericMatchesMatMul|TestGMRESLazyBasisSameIterates|TestWorkspaceSameIteratesNoRealloc|TestPackedSolveMatchesCompact|TestSolveRejectsUnknownMethod|TestPoisonedResidualBreaksDownAtOnce|TestAXPYDotMatchesAXPYThenDot|TestFusedGramSchmidtBitIdentical' \
    ./internal/krylov ./internal/la ./internal/amg

# The triplet builder keeps sorted rows and ExtractSubmatrix a dense
# index: a map per row, in the package that assembles every matrix, cost
# about 2 KB a row of garbage.
echo "== internal/la builds no map: no map type in its non-test Go =="
if grep -nE '\bmap\[' $(find internal/la -name '*.go' ! -name '*_test.go'); then
    echo "check.sh: a map in internal/la's non-test Go (above)" >&2
    exit 1
fi

# The fused sweep is bitwise the two it replaced only if the compiler
# contracts x + a·b into a fused multiply-add in both or in neither. Go
# contracts on arm64 (FMADDD in AXPYDot, Dot and the AXPY loop alike); on
# amd64 Go 1.24 emits none at any GOAMD64 level, so this stage pins the v3
# build today and the contraction on a toolchain that starts fusing there.
# The element matrix's Go body (the oracle of its assembly, which never
# fuses) and the loop order it replaced are pinned the same way, and so is
# the sweep-ordered ILU(0) against the CSR form (s -= v*x in both sweeps and
# the elimination).
echo "== fused update-and-reduce == update then reduce (shared and rank sweeps), element matrix assembly == Go body == the q-outer formula, sweep-ordered ILU(0) == the CSR form, the one-pass gradient and divergence == ApplyGAdd then ApplyD, built for GOAMD64=v3 =="
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo && grep -qw bmi2 /proc/cpuinfo; then
    GOAMD64=v3 named_tests -count=1 'TestAXPYDotMatchesAXPYThenDot|TestApplyGDMatchesGAddThenD|TestFusedGramSchmidtBitIdentical|TestCoupledReducerFusedSweepBitwise|TestViscousMatrixMatchesGo|TestGeometryStoreBitwise|TestILU0MatchesCSRFormBitwise|TestILU0RiftSubdomainsMatchCSRForm' ./internal/la ./internal/krylov ./internal/fem ./internal/stokes
else
    echo "skipped: this CPU cannot run GOAMD64=v3 code"
fi

echo "== geometry store == per-consumer Jacobians, store and coupling blocks kept while the mesh is still and rebuilt in place by concurrent first readers after a move, partial RAS back-sweep == full, one coefficient update per accepted state, the tables' solver recipe == what Prepare hands over, set-up stage timers, a step's solve timers on both backends, one breakdown retry with the other method and none for any other failure under -race =="
named_tests -race \
    'TestGeometryStoreBitwise|TestGeometryStoreKeptWhileMeshStill|TestILUBackSweepFromMatchesSolve|TestASMRestrictedPartialSweepBitwise|TestPrepareSkipsRepeatedCoefficientUpdate|TestStokesConfigIsWhatPrepareHands|TestSetupStageTimersAttributeRefresh|TestStepTelemetryRecordsWhatRan|TestSolveRetriesBreakdownWithAlternate|TestSolveWithFallbackSwitchesOnce|TestInnerFailureIsNotRetried|TestDecompFailureIsNotRetried' \
    ./internal/fem ./internal/la ./internal/krylov ./internal/nonlinear ./internal/model ./internal/stokes

echo "== parallel MPM + amortized solver setup + the kept thermal system == the builder's under -race =="
named_tests -race \
    'TestProjectorMatchesSerialAnyWorkers|TestProjectorInvalidate|TestProjectorCachedWeights|TestLocateAllParallelMatchesSerial|TestBucketedNearestMatchesScan|TestCachedSetupMatchesColdBuild|TestKrylovWarmStart|TestKeptSystemMatchesBuilder' \
    ./internal/mpm ./internal/model ./internal/thermal

echo "== point loops: closed-form location == the Newton walk on column meshes (element, found, ξ to 1e-8, residual 1e-13·h, lateral faces to the upper element), element frames == per-point arithmetic, cursor evaluators == per-point forms, per-solve inverse Jacobians follow the points and the mesh, plastic pass over yielding lithologies == over all, tabulated Q2 basis == triple products, a state field no law reads changes nothing, point coefficients from the fields read == from the full state, one coefficient update per state-free step, the population and the Krylov breakdowns and fallbacks in the step record, the -json steps == the step stats under every key, the stage times within the step's wall time on both backends, under -race =="
named_tests -race \
    'TestStepStageTimesWithinWall|TestLocateMatchesNewtonOracle|TestLocateFaceTieBreak|TestElementFrameBitwise|TestElementCursorBitwise|TestPlasticPassSkipsNonYielding|TestPointInversesFollowPointsAndMesh|TestQ2BasisTabulatedBitwise|TestReadsCoversEveryField|TestDensityReadsNoStokesState|TestPointCoefficientsMatchFullState|TestRunRecordsCoeffUpdates|TestRunRecordsPopulation|TestRunRecordsKrylovFallbacks|TestRunRecordsStepStats' \
    ./internal/fem ./internal/mpm ./internal/model ./internal/rheology ./internal/driver

echo "== benchmark module: vet + its own tests =="
(cd bench && go vet . && go test .)

echo "== scenario smoke: every registered spec, 2 steps, shared + distributed; every step's point count = the last - removed + injected, no element below its spec's population floor =="
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
refused mf32 'single-precision kernel of the kernel study'

# The Galerkin coarse level streams A·P from the finer level's element
# matrices (fem.NewViscousAP): no matrix-free level keeps an assembled matrix.
echo "== no Galerkin-input matrix: no GalerkinInput in non-test Go, no ViscousAssembly on a resident level =="
if grep -rn 'GalerkinInput' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the Galerkin-input handoff is back in non-test Go (above)" >&2
    exit 1
fi
if grep -n 'ViscousAssembly' internal/op/resident.go; then
    echo "check.sh: internal/op builds a ViscousAssembly for a resident level (above)" >&2
    exit 1
fi

# The viscous block and A·P are built through one plane window; the
# coloured scatter and its 8-colour schedule live on only in tests.
echo "== one row builder and one element loop: no colour schedule, coloured scatter, batch pool, second element loop, sync.Pool or per-node gather or scatter in non-test Go of internal/fem =="
if grep -rnE 'colorElems|forEachElementColoredChunk|viscousBatches' --include='*.go' internal/fem | grep -v '_test\.go:'; then
    echo "check.sh: the coloured scatter or its schedule is back in internal/fem (above)" >&2
    exit 1
fi
# One element loop: every whole-vector apply runs the block schedule and
# takes its arenas from one free list (DESIGN.md, "Element-parallel apply").
if grep -rnE 'sync\.Pool|slabApply|getScratch|residentScratch' --include='*.go' internal/fem | grep -v '_test\.go:'; then
    echo "check.sh: a second element loop or a sync.Pool arena is back in internal/fem (above)" >&2
    exit 1
fi
# Node runs: every element loop gathers and scatters through the run table
# (DESIGN.md, "Element-parallel apply"); the per-node forms are the oracles
# of slab_test.go only.
if grep -rnwE 'gatherVec|scatterAdd' --include='*.go' internal/fem | grep -v '_test\.go:'; then
    echo "check.sh: a per-node gather or scatter is back in internal/fem's non-test Go (above)" >&2
    exit 1
fi

# Set-up builds only what a solve runs (DESIGN.md, "Set-up amortisation"):
# the coarse solve is the one end of every hierarchy, an operator sets up
# in Setup alone, the SA-AMG's one-value parameters are constants, and
# points never migrate between ranks (the ranks share one point set).
echo "== set-up builds only what a solve runs: no smoothOnly in internal/mg or panic( in internal/op (non-test Go), no Migrate in internal/mpm, no CoarseBlocks, OmegaScale or MaxCoarseSize in internal/amg =="
if grep -rnw 'smoothOnly' --include='*.go' internal/mg | grep -v '_test\.go:' ||
    grep -rnE 'func (\([^)]*\) )?Migrate\b' --include='*.go' internal/mpm ||
    grep -rnF 'panic(' --include='*.go' internal/op | grep -v '_test\.go:' ||
    grep -rnwE 'CoarseBlocks|OmegaScale|MaxCoarseSize' --include='*.go' internal/amg; then
    echo "check.sh: a build no solve runs is back: the smoothed coarsest level, point migration, op's lazy set-up or an amg one-value option (above)" >&2
    exit 1
fi

# A rank solve does no exchange of its own, a breakdown has one signal
# (Result.Err), CG takes its vectors from the one lent workspace, and a
# rank's communication failures are recorded once, on comm.Rank (DESIGN.md,
# "Krylov at scale").
echo "== Krylov solves keep only what a run reaches: no Exchanger, StagnationWindow, stagGuard or cgWork in internal/krylov, no noteErr or errSink in internal/mg or internal/stokes (non-test Go) =="
if grep -rnwE 'Exchanger|StagnationWindow|stagGuard|cgWork' --include='*.go' internal/krylov | grep -v '_test\.go:' ||
    grep -rnwE 'noteErr|errSink' --include='*.go' internal/mg internal/stokes | grep -v '_test\.go:'; then
    echo "check.sh: an entry exchanger, stagnation window, second CG workspace or rank error sink is back (above)" >&2
    exit 1
fi

# Each solver contract is one required method or one fixed call (DESIGN.md,
# "Krylov at scale"): the residual runs the tensor kernel, Refresh is an
# op.Operator method, a rank's layout is its krylov.Reducer (Dot, AXPYDot,
# Spans) and the Chebyshev smoother holds a *krylov.Jacobi.
echo "== one interface per contract: no fem.Operator, ResidualOperator, Refresher, op.Refresh( or FusedReducer, ApplyFreeRows on fem.TensorOp alone, no Spans field in krylov.Params, no .M.(*krylov.Jacobi) (non-test Go) =="
if grep -rnE '\bfem\.Operator\b|\bResidualOperator\b|\bRefresher\b|op\.Refresh\(|\bFusedReducer\b' --include='*.go' . | grep -v '_test\.go:' ||
    grep -rnE 'func \([^)]*\) ApplyFreeRows\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/fem/viscous\.go:[0-9]+:func \(op \*TensorOp\) ' ||
    awk '/^type Params struct/,/^}/' $(ls internal/krylov/*.go | grep -v '_test\.go$') | grep -nE '^[[:space:]]+Spans[[:space:]]' ||
    grep -rnE '\.M\.\(\*(krylov\.)?Jacobi\)' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: an optional interface, its fallback or a second knob is back (above)" >&2
    exit 1
fi

# The coordinates are the one signal that the mesh moved (DESIGN.md,
# "Set-up amortisation"): the geometry store compares them,
# Problem.Coupling rebuilds its blocks when the store has rebuilt, and
# every Solver.Refresh re-injects the coarse coordinates. bench/ is its own
# module and keeps its replay's call to the no-op until a benchmark change
# drops it.
echo "== a moved mesh is read, not announced: no geomDirty, refreshGeometry, NewCoupling or .InvalidateGeometry( in the root module, no geomChanged in internal/stokes (non-test Go) =="
if grep -rnwE 'geomDirty|refreshGeometry|NewCoupling' --include='*.go' --exclude-dir=bench . | grep -v '_test\.go:' ||
    grep -rnF '.InvalidateGeometry(' --include='*.go' --exclude-dir=bench . | grep -v '_test\.go:' ||
    grep -rnw 'geomChanged' --include='*.go' internal/stokes | grep -v '_test\.go:'; then
    echo "check.sh: a mesh move is announced again, or a second way to learn of it is back (above)" >&2
    exit 1
fi

# A rank's rows are la.Span windows, both sides of an exchange know them,
# so a packet carries values only, and a collective's count is its timer's
# calls (DESIGN.md, "The rank fabric").
echo "== packets are values: no Node field, fits( or OwnedNodes, no allreduces or exchanges counter in internal/comm, no 4 + 3*8 in internal/perfmodel (non-test Go) =="
if grep -rnE '^[[:space:]]+Node[[:space:]]|fits\(|OwnedNodes|Counter\("(allreduces|exchanges)"\)' --include='*.go' internal/comm | grep -v '_test\.go:' ||
    grep -rnF '4 + 3*8' --include='*.go' internal/perfmodel | grep -v '_test\.go:'; then
    echo "check.sh: a node list on the wire, its scan, the owned-node list or a counter that repeats a timer is back (above)" >&2
    exit 1
fi

echo "== one precision: no precision axis, float32 CSR or asm32 kind in non-test Go =="
if grep -rnE 'op\.Precision|ParsePrecision|AssembledF32|CSR32|asm32' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the solver's precision axis is back in non-test Go (above)" >&2
    exit 1
fi

# Every solve, shared or rank-collective, orthogonalises by the one fused
# modified Gram-Schmidt (DESIGN.md, "Krylov at scale").
echo "== one orthogonalisation: no pipelined Krylov, batched reducer or CGS2 in non-test Go; -pipelined refused (exit 2) by both binaries =="
if grep -rnE 'cgs2|BatchReducer|DotBatch|Pipelined' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: the pipelined orthogonalisation is back in non-test Go (above)" >&2
    exit 1
fi
bindir=$(mktemp -d)
go build -o "$bindir" ./cmd/ptatin-run ./cmd/ptatin-tables
for cmd in "ptatin-run -scenario sinker -small" "ptatin-tables sweep"; do
    code=0
    # shellcheck disable=SC2086
    "$bindir"/$cmd -pipelined >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 2 ]; then
        echo "check.sh: $cmd -pipelined exited $code, want 2 (flag not defined)" >&2
        exit 1
    fi
done

# The coarse solve gathers to rank 0, and the alpha-beta fabric model
# prices counts in the sweep only (DESIGN.md, "Krylov at scale").
echo "== one coarse gather: no multi-root agglomeration or fabric pricing inside the solve in non-test Go; -coarse-roots and sweep -agg refused (exit 2) =="
if grep -rnE 'comm\.Agg\b|NewAgg|CoarseRoots|FabricModel|SetFabric|fabric_coarse_ns' --include='*.go' . | grep -v '_test\.go:'; then
    echo "check.sh: coarse agglomeration or the fabric model inside the solve is back in non-test Go (above)" >&2
    exit 1
fi
for cmd in "ptatin-run -scenario sinker -small -ranks 2x1x1 -coarse-roots 2" "ptatin-tables sweep -agg 8"; do
    code=0
    # shellcheck disable=SC2086
    "$bindir"/$cmd >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 2 ]; then
        echo "check.sh: $cmd exited $code, want 2 (flag not defined)" >&2
        exit 1
    fi
done
rm -r "$bindir"

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

# Every backticked span of README.md, DESIGN.md and the verify skill names
# what the code has: an identifier some Go file defines, a test, benchmark
# or fuzz target that go test -list lists, or a line of
# scripts/docnames/allow.txt (an allow line nothing needs fails). Cited
# sections are headings, and no EXPERIMENTS.md section goes uncited.
echo "== docs name what exists: spans resolve to code or the allow-list, cited sections are headings, every evidence section is cited =="
go run ./scripts/docnames

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

echo "== scaling sweep to 64 ranks: six rows solved; the strong-16 rows take the same iterations on 1, 8 and 64 ranks =="
sweep=$(go run ./cmd/ptatin-tables sweep -sweep-max-ranks 64)
echo "$sweep"
strong=$(awk '$1 == "strong" && $2 == 16 && $4 ~ /^[0-9]+$/ {print $5}' <<<"$sweep")
if [ "$(wc -w <<<"$strong")" -ne 3 ] || [ "$(sort -u <<<"$strong" | wc -l)" -ne 1 ]; then
    echo "scaling sweep: want three strong-16 rows (1x1x1, 2x2x2, 4x4x4) with one iteration count, got:" $strong >&2
    exit 1
fi
if [ "$(awk '$4 ~ /^[0-9]+$/' <<<"$sweep" | wc -l)" -ne 6 ]; then
    echo "scaling sweep: want six solved rows up to 64 ranks" >&2
    exit 1
fi

echo "== 64 ranks: a line for every rank, the iterations of 2 ranks =="
big=$(go run ./cmd/ptatin-tables table2 -ranks 4x4x4 -grids 16)
its64=$(awk '$1 == 16 {print $3}' <<<"$big")
its2=$(go run ./cmd/ptatin-tables table2 -ranks 2x1x1 -grids 16 | awk '$1 == 16 {print $3}')
if [ "$(grep -c '^#   rank ' <<<"$big")" -ne 64 ]; then
    echo "table2 -ranks 4x4x4: want 64 rank lines, got:" >&2
    grep '^#   rank ' <<<"$big" >&2
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
# grep exits 2 on a file it cannot read: a guard over a deleted file fails
# instead of passing silently.
echo "== liveness from the fabric: no timer, deadline or retry policy in the mailbox or the exchange =="
code=0
grep -nE 'time\.(After|NewTimer|Until|Sleep)|deadline|RetryPolicy' internal/comm/comm.go internal/comm/exchange.go || code=$?
if [ "$code" -ne 1 ]; then
    echo "check.sh: a clock is back in the exchange's liveness, or a file the guard reads is gone (above)" >&2
    exit 1
fi

# VCycle: the 8^3 and 16^3 sinker V-cycle and its layers at 1 and 2
# workers — small-grid parallel efficiency as a tracked number.
# ASMApply (matched by Apply): the rift's coarse-level Schwarz
# preconditioner at 1 and 2 workers, in ms/apply and ns/entry.
# ElementKernel: the resident element kernel, assembly against Go, in
# ns/element and GF/s (a smoke at 1x; -benchtime 200000x for numbers).
# ElementViscousMatrix: the level-1 assembly's element matrix, assembly
# against Go, in ns/element (-benchtime 2000x for numbers).
# RankSync: a 2-rank world's allreduce and halo exchange, in us/sync
# beyond the compute between syncs (-benchtime 2000x for numbers).
echo "== benchmark smoke =="
go test -run='^$' -bench='Apply|VCycle|ElementKernel|ElementViscousMatrix|RankSync' -benchtime=1x ./...

echo "== fuzz smoke =="
go test ./internal/comm -run='^$' -fuzz=FuzzDecompIndexMath -fuzztime=5s
go test ./internal/chkpt -run='^$' -fuzz=FuzzDecode -fuzztime=5s
go test ./internal/fem -run='^$' -fuzz=FuzzContractions -fuzztime=5s

echo "OK"
