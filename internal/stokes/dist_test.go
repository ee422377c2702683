package stokes

import (
	"math"
	"slices"
	"strings"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/perfmodel"
)

// runDistComparison solves the 8³ sinker with the given outer method
// both shared-memory and rank-distributed over a 2×2×1 world, and
// checks the acceptance criteria of the rank-distributed solve: same
// outer iteration count, velocity agreement to 1e-10, and non-trivial
// per-rank communication statistics.
func runDistComparison(t *testing.T, method string, velTol float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	p, def := sinkerProblem(8, 100, 2)
	cfg := sinkerConfig(p, def)
	cfg.OuterMethod = method
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)

	xs := la.NewVec(s.Op.N())
	resS := s.Solve(xs, bu, nil)
	if !resS.Converged {
		t.Fatalf("shared solve failed: %d its", resS.Iterations)
	}

	xd := la.NewVec(s.Op.N())
	resD, stats, err := s.SolveDistributed(xd, bu, 2, 2, 1, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !resD.Converged {
		t.Fatalf("distributed solve failed: %d its, err %v", resD.Iterations, resD.Err)
	}
	if resD.Iterations != resS.Iterations {
		t.Fatalf("iteration counts differ: distributed %d vs shared %d", resD.Iterations, resS.Iterations)
	}

	us, _ := s.Op.Split(xs)
	ud, _ := s.Op.Split(xd)
	diff := slices.Clone(ud)
	diff.AXPY(-1, us)
	if rel := diff.Norm2() / math.Max(us.Norm2(), 1e-300); rel > velTol {
		t.Fatalf("velocity fields deviate: rel %.3e", rel)
	}

	if len(stats) != 4 {
		t.Fatalf("want 4 rank stats, got %d", len(stats))
	}
	for _, st := range stats {
		if st.HaloMsgs == 0 || st.HaloBytes == 0 {
			t.Fatalf("rank %d reports no halo traffic: %+v", st.Rank, st)
		}
		if st.AllReduces == 0 {
			t.Fatalf("rank %d reports no allreduces: %+v", st.Rank, st)
		}
	}
}

// TestDistributedSolveMatchesSharedFGMRES is the PR's acceptance run:
// rank-distributed FGMRES on the sinker at 8³ with 2×2×1 ranks must
// converge in the same iteration count as the shared-memory solve and
// agree to 1e-10 in velocity.
func TestDistributedSolveMatchesSharedFGMRES(t *testing.T) {
	runDistComparison(t, "fgmres", 1e-10)
}

// TestDistributedSolveMatchesSharedGCR covers the paper's preferred
// outer method through the same criteria; GCR's explicit-residual
// recurrence amplifies the element-summation-order roundoff slightly
// more than the Arnoldi recurrence, hence the marginally looser bound.
func TestDistributedSolveMatchesSharedGCR(t *testing.T) {
	runDistComparison(t, "gcr", 1e-9)
}

// TestDistributedSolvePipelinedAgg runs the latency-tolerant
// configuration — CGS2 GCR, coarse agglomeration onto 2 roots, and the
// fabric cost model — over 2×2×1 ranks and checks that it (a) reaches
// the same answer as the shared solve, (b) actually spends two
// allreduces per outer iteration, and (c) reports modeled fabric time.
func TestDistributedSolvePipelinedAgg(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, def := sinkerProblem(8, 100, 2)
	cfg := sinkerConfig(p, def)
	cfg.OuterMethod = "gcr"
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)

	xs := la.NewVec(s.Op.N())
	resS := s.Solve(xs, bu, nil)
	if !resS.Converged {
		t.Fatalf("shared solve failed: %d its", resS.Iterations)
	}

	xd := la.NewVec(s.Op.N())
	resD, stats, err := s.SolveDistributed(xd, bu, 2, 2, 1, DistOptions{
		Pipelined:   true,
		CoarseRoots: 2,
		Fabric:      perfmodel.DefaultFabric(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resD.Converged {
		t.Fatalf("pipelined distributed solve failed: %d its, err %v", resD.Iterations, resD.Err)
	}
	if d := resD.Iterations - resS.Iterations; d < -2 || d > 2 {
		t.Fatalf("pipelined iteration count drifted: distributed %d vs shared %d", resD.Iterations, resS.Iterations)
	}

	us, _ := s.Op.Split(xs)
	ud, _ := s.Op.Split(xd)
	diff := slices.Clone(ud)
	diff.AXPY(-1, us)
	// The pipelined recurrence follows a different arithmetic trajectory
	// than classical GCR, so the two solves agree only up to the outer
	// tolerance amplified by the conditioning — not to trajectory
	// identity like the non-pipelined comparison above.
	if rel := diff.Norm2() / math.Max(us.Norm2(), 1e-300); rel > 1e-5 {
		t.Fatalf("velocity fields deviate: rel %.3e", rel)
	}

	for _, st := range stats {
		// Pipelined GCR issues two batched reductions per iteration (one
		// on the first) plus the initial residual norm; the V-cycle adds
		// none. Classical GCR would be at j+3 per iteration; anything
		// above 2 means the batching regressed.
		if limit := int64(2*resD.Iterations + 3); st.AllReduces > limit {
			t.Fatalf("rank %d: %d allreduces for %d iterations (want <= %d)",
				st.Rank, st.AllReduces, resD.Iterations, limit)
		}
		if st.FabricAllReduceNs == 0 || st.FabricHaloNs == 0 || st.FabricCoarseNs == 0 {
			t.Fatalf("rank %d: fabric charges missing: %+v", st.Rank, st)
		}
	}
}

// TestCoarseRootsZeroIsOne: CoarseRoots 0 and 1 are one layout — the
// coarsest level gathered to rank 0 — and one code path: the same bits in
// the solution, the same iterations and, with a fabric model installed,
// the same communication record on every rank, the coarse gather charged
// (CoarseRoots 0 used to run a second collective that charged nothing).
func TestCoarseRootsZeroIsOne(t *testing.T) {
	p, def := sinkerProblem(4, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	solve := func(roots int) (la.Vec, krylov.Result, []RankStats) {
		x := la.NewVec(s.Op.N())
		res, stats, err := s.SolveDistributed(x, bu, 2, 1, 1, DistOptions{CoarseRoots: roots, Fabric: perfmodel.DefaultFabric()})
		if err != nil || !res.Converged {
			t.Fatalf("CoarseRoots %d: converged %v, err %v", roots, res.Converged, err)
		}
		return x, res, stats
	}
	x0, res0, stats0 := solve(0)
	x1, res1, stats1 := solve(1)
	if res0.Iterations != res1.Iterations || !slices.Equal(x0, x1) {
		t.Fatalf("CoarseRoots 0 took %d iterations, 1 took %d; solutions equal: %v", res0.Iterations, res1.Iterations, slices.Equal(x0, x1))
	}
	for r := range stats0 {
		if stats0[r] != stats1[r] || stats0[r].FabricCoarseNs == 0 {
			t.Fatalf("rank %d: CoarseRoots 0 %+v, CoarseRoots 1 %+v; want equal with the coarse gather charged", r, stats0[r], stats1[r])
		}
	}
}

// TestRankCountInvariantClassical pins what the fold rests on: the
// classical solve is one iteration whatever the layout. The shared solve
// and rank worlds 1×1×1 to 2×2×2 take the same number of outer iterations
// on one 8³ sinker system, for both outer methods; the layouts differ only
// in element- and reduction-summation order, which FGMRES carries into the
// velocity at ≤ 4e-12 and GCR's explicit-residual recurrence at ≤ 5.2e-10
// (largest at 1×1×1; the bound TestDistributedSolveMatchesSharedGCR has).
func TestRankCountInvariantClassical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for method, velTol := range map[string]float64{"gcr": 1e-9, "fgmres": 1e-11} {
		t.Run(method, func(t *testing.T) {
			p, def := sinkerProblem(8, 100, 1)
			cfg := sinkerConfig(p, def)
			cfg.OuterMethod = method
			s, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bu := la.NewVec(p.DA.NVelDOF())
			fem.MomentumRHS(p, bu)
			xs := la.NewVec(s.Op.N())
			resS := s.Solve(xs, bu, nil)
			if !resS.Converged {
				t.Fatalf("shared solve failed: %d its", resS.Iterations)
			}
			us, _ := s.Op.Split(xs)
			for _, pg := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
				xd := la.NewVec(s.Op.N())
				resD, _, err := s.SolveDistributed(xd, bu, pg[0], pg[1], pg[2], DistOptions{})
				if err != nil || !resD.Converged {
					t.Fatalf("%v: distributed solve failed: %d its, err %v", pg, resD.Iterations, err)
				}
				if resD.Iterations != resS.Iterations {
					t.Fatalf("%v: %d iterations, shared took %d", pg, resD.Iterations, resS.Iterations)
				}
				ud, _ := s.Op.Split(xd)
				diff := slices.Clone(ud)
				diff.AXPY(-1, us)
				if rel := diff.Norm2() / us.Norm2(); rel > velTol {
					t.Fatalf("%v: velocity deviates from shared: rel %.3e", pg, rel)
				}
			}
		})
	}
}

// TestPipelinedGCRRankCountInvariant closes the 62-vs-37: pipelined GCR
// through the real rank reducer converges within ±2 iterations of
// classical GCR at 1×1×1 and at 2×2×2. The system is the scaling sweep's
// strong-16 configuration (two levels, op.Tensor, Δη = 100) on this
// package's sinker; 16³ is the smallest grid on which a single
// Gram–Schmidt pass loses enough orthogonality to show (54 classical
// against 61 and 63 — the sweep's own spheres read 37 against 62 and 37),
// so the test fails when cgs2's second pass is removed.
func TestPipelinedGCRRankCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, def := sinkerProblem(16, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.OuterMethod = "gcr"
	cfg.Levels = 2
	cfg.FineKind = op.Tensor
	cfg.Params.MaxIt = 1000
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	solve := func(px, py, pz int, pipelined bool) int {
		x := la.NewVec(s.Op.N())
		res, _, err := s.SolveDistributed(x, bu, px, py, pz, DistOptions{Pipelined: pipelined})
		if err != nil || !res.Converged {
			t.Fatalf("%dx%dx%d pipelined=%v: %d its, err %v", px, py, pz, pipelined, res.Iterations, err)
		}
		return res.Iterations
	}
	classical := solve(1, 1, 1, false)
	for _, pg := range [][3]int{{1, 1, 1}, {2, 2, 2}} {
		if its := solve(pg[0], pg[1], pg[2], true); its < classical-2 || its > classical+2 {
			t.Fatalf("%v: pipelined GCR took %d iterations, classical %d", pg, its, classical)
		}
	}
}

// TestDistributedSolveRejectsBadConfigs: algebraic-only configurations,
// non-nesting rank grids and unknown outer methods must fail fast with a
// clear error.
func TestDistributedSolveRejectsBadConfigs(t *testing.T) {
	p, def := sinkerProblem(4, 10, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 1
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	if _, _, err := s.SolveDistributed(x, bu, 2, 1, 1, DistOptions{}); err == nil {
		t.Fatal("Levels=1 must reject the distributed solve")
	}

	cfg2 := sinkerConfig(p, def)
	cfg2.Levels = 2
	s2, err := New(p, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// 4³ elements over 2 levels: the coarse grid has 2 elements per
	// axis, so 3 ranks along x cannot nest.
	if _, _, err := s2.SolveDistributed(x, bu, 3, 1, 1, DistOptions{}); err == nil {
		t.Fatal("non-nesting rank grid must be rejected")
	}

	// An unknown outer method is rejected when the solver is built, and —
	// should a caller name one per solve — by the distributed solve itself
	// rather than run as GCR.
	cfg3 := sinkerConfig(p, def)
	cfg3.OuterMethod = "bicgstab"
	if _, err := New(p, cfg3); err == nil || !strings.Contains(err.Error(), "bicgstab") {
		t.Fatalf("unknown outer method must be rejected by New, got %v", err)
	}
	delta := la.NewVec(s2.Op.N())
	if _, _, err := s2.LinearSolveDistributed("", s2.Op, x, delta, cfg2.Params, 2, 1, 1, DistOptions{}); err == nil {
		t.Fatal("LinearSolveDistributed must reject an unnamed method")
	}
}
