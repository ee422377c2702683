package mg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
)

// buildDistFixture builds a shared hierarchy plus per-level decomps.
func buildDistFixture(t *testing.T, m, levels int, px, py, pz int) (*MG, []*comm.Decomp) {
	t.Helper()
	return buildWideDistFixture(t, m, levels, px, py, pz, 1)
}

// buildWideDistFixture is buildDistFixture with the hierarchy built
// workers wide.
func buildWideDistFixture(t *testing.T, m, levels int, px, py, pz, workers int) (*MG, []*comm.Decomp) {
	t.Helper()
	eta := func(x, y, z float64) float64 { return 1 + 10*x*y + 5*z }
	fine := stdProblem(m, eta)
	probs := CoarsenProblems(fine, levels, FuncCoeffCoarsener(eta, nil))
	mgp, err := Build(probs, Options{
		Kinds:       layoutKinds(t, levels, op.Tensor),
		SmoothSteps: 2,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgp.UseBlockJacobiCoarse(1); err != nil {
		t.Fatal(err)
	}
	decomps := make([]*comm.Decomp, levels)
	for l, lev := range mgp.Levels {
		d, err := comm.NewDecomp(lev.Prob.DA, px, py, pz)
		if err != nil {
			t.Fatal(err)
		}
		decomps[l] = d
	}
	if err := ValidateNestedDecomps(decomps); err != nil {
		t.Fatal(err)
	}
	return mgp, decomps
}

// rankDists builds rank r's per-level comm handles.
func rankDists(r *comm.Rank, decomps []*comm.Decomp) []*comm.Dist {
	dists := make([]*comm.Dist, len(decomps))
	for l, d := range decomps {
		dists[l] = comm.NewDist(r, comm.NewLayout(d, r.ID), nil)
	}
	return dists
}

// TestDistMGMatchesShared: one distributed V-cycle application must
// agree with the shared-memory V-cycle on every rank's owned dofs to
// floating-point roundoff: the cycle and the transfers are the same code
// and the same sums, so the two differ only in element summation order
// in the fine level's halo operator.
func TestDistMGMatchesShared(t *testing.T) {
	mgp, decomps := buildDistFixture(t, 8, 2, 2, 2, 1)
	n := mgp.Levels[0].Op.N()
	rng := rand.New(rand.NewSource(7))
	b := la.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	zs := la.NewVec(n)
	mgp.Apply(b, zs)

	w := comm.NewWorld(decomps[0].Size())
	var mu sync.Mutex
	zd := la.NewVec(n)
	w.Run(func(r *comm.Rank) {
		dists := rankDists(r, decomps)
		dmg, err := NewDist(mgp, dists)
		if err != nil {
			t.Error(err)
			return
		}
		z := la.NewVec(n)
		dmg.Apply(b, z)
		if err := r.Err(); err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
		l := dists[0].L
		mu.Lock()
		zd.CopySpans(z, l.OwnedSpans())
		mu.Unlock()
	})
	ref := zs.Norm2()
	diff := slices.Clone(zd)
	diff.AXPY(-1, zs)
	if rel := diff.Norm2() / ref; rel > 1e-14 { // measured 2.0e-16
		t.Fatalf("distributed V-cycle deviates from shared: rel %.3e", rel)
	}
}

// TestDistMGReportsDisagreeingRank: in a 2×1×1 world rank 1 issues one
// Broadcast that rank 0 does not, then both run a DistMG.Apply. From
// there on every exchange between them pairs packets of different
// exchanges: rank 0's restriction broadcast takes a packet of the fine
// level, whose nodes lie beyond the coarse vector, and rank 1's coarse
// gather takes a halo packet where the solution is due. Neither rank
// hangs or panics, and each rank's Rank.Err holds the typed failure,
// though the operator, transfer and coarse-solve applies return no error.
func TestDistMGReportsDisagreeingRank(t *testing.T) {
	mgp, decomps := buildDistFixture(t, 4, 2, 2, 1, 1)
	n := mgp.Levels[0].Op.N()
	b := la.NewVec(n)
	for i := range b {
		b[i] = float64(1 + i%5)
	}
	errs := make([]error, 2)
	comm.NewWorld(2).Run(func(r *comm.Rank) {
		dists := rankDists(r, decomps)
		dmg, err := NewDist(mgp, dists)
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID == 1 {
			_ = dists[0].Broadcast(la.NewVec(n))
		}
		dmg.Apply(b, la.NewVec(n))
		errs[r.ID] = r.Err()
	})
	for id, err := range errs {
		var pe *comm.PayloadError
		var ee *comm.ExchangeError
		if !errors.As(err, &pe) && !errors.As(err, &ee) {
			t.Errorf("rank %d: Err() = %v, want a *comm.PayloadError or *comm.ExchangeError", id, err)
		}
	}
}

// TestDistRestrictBitwiseShared: a rank's transfers are the whole grid's
// over the rank's node boxes. On a 2×2×1 world, restriction leaves every
// rank's owned coarse entries — and, after its owner broadcast, the ghosts
// — bit for bit what Prolongation.ApplyTranspose computes, and
// prolongation over the owned+ghost box equals Apply bit for bit. (The
// scatter + rank-ordered owner-reduce this replaced agreed only to
// rounding.) A rank is one worker: over a hierarchy built 4 wide its
// transfers run plain loops and post nothing to the pool (par.Counts
// does not move).
func TestDistRestrictBitwiseShared(t *testing.T) {
	for _, workers := range []int{1, 4} {
		mgp, decomps := buildWideDistFixture(t, 8, 2, 2, 2, 1, workers)
		p := mgp.Levels[1].P
		if p.Workers != workers {
			t.Fatalf("hierarchy transfer %d wide, want %d", p.Workers, workers)
		}
		rng := rand.New(rand.NewSource(41))
		rf := la.NewVec(p.Fine.NVelDOF())
		uc := la.NewVec(p.Coarse.NVelDOF())
		for i := range rf {
			rf[i] = rng.NormFloat64()
		}
		for i := range uc {
			uc[i] = rng.NormFloat64()
		}
		rcS, ufS := la.NewVec(len(uc)), la.NewVec(len(rf))
		p.ApplyTranspose(rf, rcS)
		p.Apply(uc, ufS)

		items0, _ := par.Counts()
		comm.NewWorld(decomps[0].Size()).Run(func(r *comm.Rank) {
			dists := rankDists(r, decomps)
			dmg, err := NewDist(mgp, dists)
			if err != nil {
				t.Error(err)
				return
			}
			tr := dmg.lev[1].p
			rc, uf := la.NewVec(len(uc)), la.NewVec(len(rf))
			tr.ApplyTranspose(rf, rc)
			tr.Apply(uc, uf)
			if err := r.Err(); err != nil {
				t.Errorf("%d workers, rank %d: %v", workers, r.ID, err)
			}
			for _, sp := range dists[1].L.VelSpans() { // owned and ghost
				for d := sp.Lo; d < sp.Hi; d++ {
					if rc[d] != rcS[d] {
						t.Errorf("%d workers, rank %d: restricted dof %d = %v, shared %v", workers, r.ID, d, rc[d], rcS[d])
						return
					}
				}
			}
			for _, sp := range dists[0].L.VelSpans() {
				for d := sp.Lo; d < sp.Hi; d++ {
					if uf[d] != ufS[d] {
						t.Errorf("%d workers, rank %d: prolonged dof %d = %v, shared %v", workers, r.ID, d, uf[d], ufS[d])
						return
					}
				}
			}
		})
		if items, _ := par.Counts(); items != items0 {
			t.Errorf("%d workers: the rank transfers posted %d pool items, want 0", workers, items-items0)
		}
	}
}

// TestDistMGBlockedMatchesSerial: the default layout (resident levels,
// wavefront smoother) solved serially must agree with the distributed
// V-cycle-preconditioned solve at 1, 8 and 64 ranks — same outer CG
// iteration count on every rank, solutions within 1e-10 — and bitwise
// with the serial solve smoothing full-grid. The blocked smoother is
// bit-identical to the full-grid recurrence the distributed ranks run, so
// the only serial/distributed divergence left is element-summation order
// in the halo operator. The 3-level case has the level-1 operator that
// applies resident and keeps its matrix only as the Galerkin input.
func TestDistMGBlockedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		levels int
		grids  [][3]int
	}{
		{2, [][3]int{{1, 1, 1}, {2, 2, 2}, {4, 4, 4}}},
		{3, [][3]int{{1, 1, 1}, {2, 2, 2}}},
	} {
		distBlockedCase(t, tc.levels, tc.grids)
	}
}

func distBlockedCase(t *testing.T, levels int, grids [][3]int) {
	eta := func(x, y, z float64) float64 { return 1 + 10*x*y + 5*z }
	fine := stdProblem(8, eta)
	probs := CoarsenProblems(fine, levels, FuncCoeffCoarsener(eta, nil))
	mgp, err := Build(probs, Options{
		Kinds:       layoutKinds(t, levels, op.TensorC),
		SmoothSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < levels-1; l++ {
		if mgp.Levels[l].Blocked == nil {
			t.Fatalf("%d levels: level %d did not get a blocked smoother (no resident backing?)", levels, l)
		}
	}
	if err := mgp.UseBlockJacobiCoarse(1); err != nil {
		t.Fatal(err)
	}

	lev := mgp.Levels[0]
	n := lev.Op.N()
	rng := rand.New(rand.NewSource(31))
	b := la.NewVec(n)
	for i := range b {
		if !lev.Prob.BC.Mask[i] {
			b[i] = rng.NormFloat64()
		}
	}
	prm := krylov.DefaultParams()
	prm.RTol = 1e-8
	prm.MaxIt = 200

	xs := la.NewVec(n)
	resS := krylov.CG(lev.Op, mgp, b, xs, prm)
	if !resS.Converged {
		t.Fatalf("serial blocked-MG CG did not converge: %d its", resS.Iterations)
	}

	// The test-local full-grid reference: the same hierarchy with the
	// wavefront smoothers taken out.
	blocked := make([]*fem.BlockedChebyshev, levels)
	for l, ml := range mgp.Levels {
		blocked[l], ml.Blocked = ml.Blocked, nil
	}
	xf := la.NewVec(n)
	resF := krylov.CG(lev.Op, mgp, b, xf, prm)
	for l, ml := range mgp.Levels {
		ml.Blocked = blocked[l]
	}
	if resF.Iterations != resS.Iterations {
		t.Fatalf("%d levels: full-grid smoothing took %d iterations, blocked %d", levels, resF.Iterations, resS.Iterations)
	}
	for i := range xs {
		if xs[i] != xf[i] {
			t.Fatalf("%d levels: dof %d differs bitwise between blocked and full-grid smoothing: %v vs %v", levels, i, xs[i], xf[i])
		}
	}

	for _, pg := range grids {
		decomps := make([]*comm.Decomp, len(mgp.Levels))
		for l, ml := range mgp.Levels {
			d, err := comm.NewDecomp(ml.Prob.DA, pg[0], pg[1], pg[2])
			if err != nil {
				t.Fatal(err)
			}
			decomps[l] = d
		}
		if err := ValidateNestedDecomps(decomps); err != nil {
			t.Fatal(err)
		}
		ranks := decomps[0].Size()
		w := comm.NewWorld(ranks)
		var mu sync.Mutex
		xd := la.NewVec(n)
		its := make([]int, ranks)
		w.Run(func(r *comm.Rank) {
			dists := rankDists(r, decomps)
			dmg, err := NewDist(mgp, dists)
			if err != nil {
				t.Error(err)
				return
			}
			for l := 0; l < levels-1; l++ {
				if h, ok := dmg.lev[l].op.(*haloElementOp); !ok || h.k != comm.ElementKernel(mgp.Levels[l].Blocked.R) {
					t.Errorf("rank %d: level %d is %T; want the halo operator over the shared resident kernel", r.ID, l, dmg.lev[l].op)
				}
			}
			dprm := prm
			dprm.Reducer = velReducer{dists[0]}
			x := la.NewVec(n)
			res := krylov.CG(dmg.lev[0].op, dmg, slices.Clone(b), x, dprm)
			if !res.Converged {
				t.Errorf("rank %d: distributed CG did not converge (%d its, err %v)", r.ID, res.Iterations, res.Err)
			}
			if err := r.Err(); err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
			l := dists[0].L
			mu.Lock()
			its[r.ID] = res.Iterations
			xd.CopySpans(x, l.OwnedSpans())
			mu.Unlock()
		})
		for rid, it := range its {
			if it != resS.Iterations {
				t.Fatalf("%dx%dx%d rank %d took %d iterations, serial took %d",
					pg[0], pg[1], pg[2], rid, it, resS.Iterations)
			}
		}
		diff := slices.Clone(xd)
		diff.AXPY(-1, xs)
		if rel := diff.Norm2() / math.Max(xs.Norm2(), 1e-300); rel > 1e-10 {
			t.Fatalf("%dx%dx%d: distributed blocked solve deviates: rel %.3e", pg[0], pg[1], pg[2], rel)
		}
	}
}

// TestDistMGRejectsNonNestedDecomps: a rank grid that does not divide
// the per-level element counts evenly must be rejected up front, not
// fail mysteriously mid-cycle.
func TestDistMGRejectsNonNestedDecomps(t *testing.T) {
	eta := func(x, y, z float64) float64 { return 1 }
	fine := stdProblem(8, eta)
	probs := CoarsenProblems(fine, 2, FuncCoeffCoarsener(eta, nil))
	decomps := make([]*comm.Decomp, 2)
	for l, p := range probs {
		d, err := comm.NewDecomp(p.DA, 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		decomps[l] = d
	}
	if err := ValidateNestedDecomps(decomps); err == nil {
		t.Fatal("3x1x1 over 8->4 elements nests unevenly; want error")
	}
}

// velReducer distributes a velocity-block Krylov solve on full-length
// vectors (no Spans): the partial dot over the owned node box, node by
// node, with a deterministic AllReduce (NaN when it fails, which the
// iteration breaks down on; the rank records the failure). Its AXPYDot
// is the two steps: the update, then Dot.
type velReducer struct{ d *comm.Dist }

func (rd velReducer) AXPYDot(v la.Vec, alpha float64, x, y la.Vec) float64 {
	v.AXPY(alpha, x)
	return rd.Dot(v, y)
}

func (velReducer) Spans() []la.Span { return nil }

func (rd velReducer) Dot(x, y la.Vec) float64 {
	s := 0.0
	for _, sp := range rd.d.L.OwnedSpans() {
		for d0 := sp.Lo; d0 < sp.Hi; d0 += 3 {
			s += x[d0]*y[d0] + x[d0+1]*y[d0+1] + x[d0+2]*y[d0+2]
		}
	}
	v, _ := rd.d.AllReduceSum(s)
	return v
}

// TestDistributedCGMatchesShared: rank-collective CG on the viscous
// fine operator must follow the shared-memory iteration — same count,
// matching solution — exercising the Reducer plumbing and the
// overlapped halo operator outside the V-cycle context.
func TestDistributedCGMatchesShared(t *testing.T) {
	mgp, decomps := buildDistFixture(t, 8, 2, 2, 1, 2)
	lev := mgp.Levels[0]
	n := lev.Op.N()
	rng := rand.New(rand.NewSource(11))
	b := la.NewVec(n)
	for i := range b {
		if !lev.Prob.BC.Mask[i] {
			b[i] = rng.NormFloat64()
		}
	}
	prm := krylov.DefaultParams()
	prm.RTol = 1e-8
	prm.MaxIt = 400
	jac := lev.Smoother.M

	xs := la.NewVec(n)
	resS := krylov.CG(lev.Op, jac, b, xs, prm)
	if !resS.Converged {
		t.Fatalf("shared CG did not converge: %d its", resS.Iterations)
	}

	w := comm.NewWorld(decomps[0].Size())
	var mu sync.Mutex
	xd := la.NewVec(n)
	its := make([]int, decomps[0].Size())
	w.Run(func(r *comm.Rank) {
		dists := rankDists(r, decomps)
		dmg, err := NewDist(mgp, dists)
		if err != nil {
			t.Error(err)
			return
		}
		dprm := prm
		dprm.Reducer = velReducer{dists[0]}
		x := la.NewVec(n)
		res := krylov.CG(dmg.lev[0].op, jac, slices.Clone(b), x, dprm)
		if !res.Converged {
			t.Errorf("rank %d: distributed CG did not converge (%d its, err %v)", r.ID, res.Iterations, res.Err)
		}
		l := dists[0].L
		mu.Lock()
		its[r.ID] = res.Iterations
		xd.CopySpans(x, l.OwnedSpans())
		mu.Unlock()
	})
	for rid, it := range its {
		if it != resS.Iterations {
			t.Fatalf("rank %d took %d iterations, shared took %d", rid, it, resS.Iterations)
		}
	}
	diff := slices.Clone(xd)
	diff.AXPY(-1, xs)
	if rel := diff.Norm2() / math.Max(xs.Norm2(), 1e-300); rel > 1e-8 {
		t.Fatalf("distributed CG deviates: rel %.3e", rel)
	}
}

// zeroGuessCounter is a coarse solver that counts its applications, and
// those entered with a nonzero z on the given windows (nil: all of z).
type zeroGuessCounter struct {
	krylov.Preconditioner
	spans            []la.Span
	applies, nonzero int
}

func (c *zeroGuessCounter) Apply(r, z la.Vec) {
	c.applies++
	spans := c.spans
	if spans == nil {
		spans = []la.Span{{Lo: 0, Hi: len(z)}}
	}
	for _, s := range spans {
		if z[s.Lo:s.Hi].Norm2() != 0 {
			c.nonzero++
			break
		}
	}
	c.Preconditioner.Apply(r, z)
}

// TestCoarsestAlwaysZeroGuess: every V-cycle, shared and distributed,
// enters the coarsest level exactly once and from a zeroed correction —
// which is why neither cycle has a correction-form coarse branch for a
// nonzero guess.
func TestCoarsestAlwaysZeroGuess(t *testing.T) {
	const rounds = 3
	mgp, decomps := buildDistFixture(t, 8, 3, 2, 1, 1)
	cnt := &zeroGuessCounter{Preconditioner: mgp.CoarseSolve}
	mgp.CoarseSolve = cnt
	n := mgp.Levels[0].Op.N()
	rng := rand.New(rand.NewSource(23))
	b := la.NewVec(n)
	z := la.NewVec(n)
	for i := 0; i < rounds; i++ {
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		mgp.Apply(b, z)
	}
	if cnt.applies != rounds || cnt.nonzero != 0 {
		t.Fatalf("MG: %d coarse solves (%d from a nonzero guess) in %d cycles, want %d (0)",
			cnt.applies, cnt.nonzero, rounds, rounds)
	}

	// Distributed: rank 0 runs the gathered coarse solve; its correction is
	// zeroed on its own windows (the rest still holds the last broadcast).
	last := len(decomps) - 1
	*cnt = zeroGuessCounter{Preconditioner: cnt.Preconditioner, spans: comm.NewLayout(decomps[last], 0).VelSpans()}
	comm.NewWorld(decomps[0].Size()).Run(func(r *comm.Rank) {
		dmg, err := NewDist(mgp, rankDists(r, decomps))
		if err != nil {
			t.Error(err)
			return
		}
		zr := la.NewVec(n)
		for i := 0; i < rounds; i++ {
			dmg.Apply(b, zr)
		}
		if err := r.Err(); err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
	})
	if cnt.applies != rounds || cnt.nonzero != 0 {
		t.Fatalf("DistMG: %d coarse solves (%d from a nonzero guess) in %d cycles, want %d (0)",
			cnt.applies, cnt.nonzero, rounds, rounds)
	}
}
