// Package amg implements a smoothed-aggregation algebraic multigrid
// preconditioner — the stand-in for both PETSc's GAMG and Trilinos' ML in
// the paper's comparisons (§III-C, §IV-C, Table IV). It is used in two
// roles: as the coarse-grid solver of the geometric multigrid hierarchy
// ("GAMG ... to perform further distributed coarsening", with the six
// rigid-body modes and a strength threshold of 0.01), and as a standalone
// preconditioner for the assembled fine-level operator (the SA-i and
// SAML-* configurations of Table IV).
package amg

import (
	"fmt"
	"math"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// The set-up's fixed parameters, one value for every configuration.
const (
	// strength is the aggregation graph threshold θ: an edge (i,j) is
	// kept if ‖A_ij‖ > θ·√(‖A_ii‖‖A_jj‖). The paper uses 0.01.
	strength = 0.01
	// maxCoarseSize stops coarsening once a level has at most this many
	// unknowns (paper's ML configuration: 100).
	maxCoarseSize = 100
	// maxLevels bounds the hierarchy depth.
	maxLevels = 10
	// omegaScale sets the prolongator smoothing damping ω = omegaScale/λmax
	// (classical smoothed aggregation uses 4/3).
	omegaScale = 4.0 / 3.0
	// eigIts is the number of power iterations of every λmax estimate.
	eigIts = 10
)

// Options configures the smoothed-aggregation setup.
type Options struct {
	// SmoothSteps is the Chebyshev smoother degree per pre/post smooth
	// (at least 1; GAMGLike sets 2).
	SmoothSteps int
	// DropTol drops entries of the smoothed prolongator below
	// DropTol·max|row| (the ML configuration of Table IV uses 0.01;
	// 0 keeps everything, the GAMG-like default).
	DropTol float64
	// ILUSmoother switches the level smoother from Chebyshev/Jacobi to
	// FGMRES(2) preconditioned with block-Jacobi ILU(0) (the stronger
	// smoother of the SAML-ii configuration).
	ILUSmoother bool
	// Workers is the pool width of the cycle's sparse matrix–vector
	// products (<= 1: serial). Rows are partitioned, row sums unchanged.
	Workers int
}

// GAMGLike returns the options reproducing the paper's GAMG usage:
// threshold 0.01, rigid-body modes, Chebyshev/Jacobi smoothing, an exact
// LU coarse solve.
func GAMGLike() Options {
	return Options{SmoothSteps: 2}
}

// MLLike returns the options reproducing the paper's ML configuration
// (SAML-i): drop tolerance 0.01 in the prolongator, max coarse size 100.
func MLLike() Options {
	o := GAMGLike()
	o.DropTol = 0.01
	return o
}

// MLStrongLike returns the SAML-ii configuration: ML-style setup with the
// stronger FGMRES(2)/block-Jacobi-ILU(0) smoother.
func MLStrongLike() Options {
	o := MLLike()
	o.ILUSmoother = true
	return o
}

// level is one rung of the hierarchy. The coarsest level, which the exact
// coarse solve handles, has no smoother and no r. A level's storage —
// its operator and prolongator below the finest, its near-null space,
// smoother and vectors — is kept by Refresh, which rebuilds into it.
type level struct {
	a       *la.CSR
	p       *la.CSR   // prolongation into the next-finer level (nil on the finest)
	nns     *la.Dense // the near-null space the next coarsening reads (nil on the finest: the caller's)
	smooth  func(b, x la.Vec, zero bool)
	r, e, b la.Vec
	c       la.Vec // the ILU smoother's correction; nil for Chebyshev

	// The smoother: the Jacobi scaling of the level's diagonal d, and the
	// Chebyshev iteration over it, or the SAML-ii inner FGMRES over the
	// level's ILU(0).
	d     la.Vec
	jac   *krylov.Jacobi
	cheb  *krylov.Chebyshev
	ilu   krylov.ILUPC
	inner *krylov.InnerKrylov

	// Cached telemetry handles; nil (inert) when telemetry is off.
	smoothT, opT     *telemetry.Timer
	smoothC, opCount *telemetry.Counter
}

// levelOp is a level's operator as the smoother applies it: the
// worker-parallel SpMV of whatever matrix the level holds.
type levelOp struct {
	lev     *level
	workers int
}

func (o levelOp) N() int            { return o.lev.a.NRows }
func (o levelOp) Apply(x, y la.Vec) { o.lev.a.MulVecPar(x, y, o.workers) }

// SA is the assembled smoothed-aggregation hierarchy. It satisfies
// krylov.Preconditioner (one V-cycle per application).
type SA struct {
	levels []*level
	coarse *krylov.BlockJacobi
	opt    Options
	bs     int // block size of the finest level
	work   setupWork

	cycles  *telemetry.Counter
	coarseT *telemetry.Timer
	coarseC *telemetry.Counter
}

// SetTelemetry installs per-level instrumentation under sc, mirroring
// mg.MG.SetTelemetry: a child scope per smoothed level, level0…level(N−1),
// with "smooth"/"op" timers and "smooth_applies"/"op_applies" counters, a
// "coarse" child with a "solve" timer and "solves" counter for the
// coarsest level's LU solve, and a "cycles" counter on sc. Handles are
// cached; the cycle hot path never takes the scope lock. Passing nil
// uninstalls.
func (sa *SA) SetTelemetry(sc *telemetry.Scope) {
	for l, lev := range sa.levels[:len(sa.levels)-1] {
		if sc == nil {
			lev.smoothT, lev.opT, lev.smoothC, lev.opCount = nil, nil, nil, nil
			continue
		}
		lsc := sc.Child(fmt.Sprintf("level%d", l))
		lev.smoothT = lsc.Timer("smooth")
		lev.opT = lsc.Timer("op")
		lev.smoothC = lsc.Counter("smooth_applies")
		lev.opCount = lsc.Counter("op_applies")
	}
	if sc == nil {
		sa.cycles, sa.coarseT, sa.coarseC = nil, nil, nil
		return
	}
	sa.cycles = sc.Counter("cycles")
	sa.coarseT = sc.Child("coarse").Timer("solve")
	sa.coarseC = sc.Child("coarse").Counter("solves")
}

// RigidBodyModes builds the 6-column near-null-space matrix of 3-D
// elasticity (3 translations + 3 rotations) for nodes at the given
// coordinates (3 floats per node, matching 3 dofs per node). Constrained
// dofs are zeroed, mirroring PETSc's MatNullSpaceCreateRigidBody +
// MatZeroRows usage.
func RigidBodyModes(coords []float64, mask []bool) *la.Dense {
	nn := len(coords) / 3
	b := la.NewDense(3*nn, 6)
	// Centre coordinates for conditioning.
	var cx, cy, cz float64
	for n := 0; n < nn; n++ {
		cx += coords[3*n]
		cy += coords[3*n+1]
		cz += coords[3*n+2]
	}
	cx /= float64(nn)
	cy /= float64(nn)
	cz /= float64(nn)
	for n := 0; n < nn; n++ {
		x, y, z := coords[3*n]-cx, coords[3*n+1]-cy, coords[3*n+2]-cz
		b.Set(3*n+0, 0, 1)
		b.Set(3*n+1, 1, 1)
		b.Set(3*n+2, 2, 1)
		// Rotation about x: (0, -z, y); about y: (z, 0, -x); about z: (-y, x, 0).
		b.Set(3*n+1, 3, -z)
		b.Set(3*n+2, 3, y)
		b.Set(3*n+0, 4, z)
		b.Set(3*n+2, 4, -x)
		b.Set(3*n+0, 5, -y)
		b.Set(3*n+1, 5, x)
	}
	if mask != nil {
		for d, m := range mask {
			if m {
				for c := 0; c < 6; c++ {
					b.Set(d, c, 0)
				}
			}
		}
	}
	return b
}

// New builds the SA hierarchy for the SPD block matrix a with block size
// bs (3 for the fine elasticity/viscous level) and near-null-space matrix
// nns (rows = dofs of a, cols = modes; typically RigidBodyModes). The
// hierarchy keeps no reference to nns.
func New(a *la.CSR, bs int, nns *la.Dense, opt Options) (*SA, error) {
	sa := &SA{opt: opt, bs: bs}
	if err := sa.Refresh(a, nns); err != nil {
		return nil, err
	}
	return sa, nil
}

// Refresh rebuilds the hierarchy for a — new values, a new pattern or a
// new matrix — and its near-null space nns: every phase of New runs again
// (strength graph and aggregates, tentative prolongator and its QR, λmax
// and the smoothed prolongator, the Galerkin products and the dead-dof
// fix, the smoothers and the coarse LU), in the same order on the same
// operands, so the result is bitwise New(a, bs, nns, opt). Each phase
// writes into the storage the levels and the set-up scratch kept from the
// last build where it has the room; the level count may change. After an
// error Apply panics until a Refresh succeeds; that Refresh needs nothing
// of the failed one.
func (sa *SA) Refresh(a *la.CSR, nns *la.Dense) error {
	if a.NRows != nns.Rows {
		return fmt.Errorf("amg: near-null space rows %d != matrix dim %d", nns.Rows, a.NRows)
	}
	w := &sa.work
	levels := sa.levels[:0]
	levels = append(levels, sa.reuse(0))
	levels[0].a = a
	curBS, curNNS := sa.bs, nns
	for {
		cur := levels[len(levels)-1].a
		if cur.NRows <= maxCoarseSize || len(levels) >= maxLevels {
			break
		}
		next := sa.reuse(len(levels))
		if next.a == nil {
			next.a, next.p, next.nns = &la.CSR{}, &la.CSR{}, &la.Dense{}
		}
		if !w.prolongator(cur, curBS, curNNS, sa.opt.DropTol, next.p, next.nns) || next.p.NCols >= cur.NRows { // aggregation stalled
			break
		}
		la.RAPInto(next.a, cur, next.p, &w.ap, &w.pt)
		w.fixZeroDiag(next.a)
		levels = append(levels, next)
		curNNS = next.nns
		curBS = curNNS.Cols
	}
	sa.levels = levels
	last := len(levels) - 1
	for _, lev := range levels[:last] {
		n := lev.a.NRows
		lev.r, lev.e, lev.b = la.Resized(lev.r, n), la.Resized(lev.e, n), la.Resized(lev.b, n)
		sa.installSmoother(lev)
	}
	coarsest := levels[last]
	n := coarsest.a.NRows
	coarsest.e, coarsest.b = la.Resized(coarsest.e, n), la.Resized(coarsest.b, n)
	coarsest.smooth, coarsest.r = nil, nil
	// One block: an exact LU solve of the coarsest level.
	var err error
	if sa.coarse == nil {
		sa.coarse, err = krylov.NewBlockJacobi(coarsest.a, 1)
	} else {
		err = sa.coarse.Refresh(coarsest.a)
	}
	if err != nil {
		sa.coarse = nil
		return fmt.Errorf("amg: coarse factorization: %w", err)
	}
	return nil
}

// reuse returns the level object at depth l from the last build, or a
// new one: storage of levels a build no longer reached is kept past the
// end of sa.levels.
func (sa *SA) reuse(l int) *level {
	if l < cap(sa.levels) {
		if lev := sa.levels[:cap(sa.levels)][l]; lev != nil {
			return lev
		}
	}
	return &level{}
}

// installSmoother attaches the configured smoother to a level, or
// refreshes the one it has; the level's r, e and b must have its size.
func (sa *SA) installSmoother(lev *level) {
	a := lev.a
	lev.d = la.Resized(lev.d, a.NRows)
	a.Diag(lev.d)
	for i, v := range lev.d {
		if v == 0 {
			lev.d[i] = 1
		}
	}
	if lev.jac == nil {
		lev.jac = krylov.NewJacobi(lev.d)
	} else {
		lev.jac.SetDiag(lev.d)
	}
	op := levelOp{lev, sa.opt.Workers}
	if sa.opt.ILUSmoother {
		// FGMRES(2) preconditioned with block-Jacobi ILU(0): the SAML-ii
		// smoother. Block Jacobi here means ILU(0) of the whole level in
		// our single-address-space setting (one "subdomain"); a level
		// whose ILU(0) fails smooths with Jacobi instead.
		if lev.inner == nil {
			lev.inner = &krylov.InnerKrylov{A: op, Method: "fgmres",
				Prm: krylov.Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 2, Restart: 2}}
		}
		lev.inner.M = lev.jac
		var err error
		if lev.ilu.F == nil {
			lev.ilu.F, err = la.NewILU0(a)
		} else {
			err = lev.ilu.F.Rebuild(a)
		}
		if err == nil {
			lev.inner.M = &lev.ilu
		}
		// The post-smooth's residual goes to the level's r, free once the
		// coarse correction is in; its correction to c (e is the iterate
		// itself below the finest level).
		lev.c = la.Resized(lev.c, a.NRows)
		if lev.smooth == nil {
			lev.smooth = func(b, x la.Vec, zero bool) {
				if zero {
					lev.inner.Apply(b, x)
					return
				}
				op.Apply(x, lev.r)
				lev.r.AYPX(-1, b)
				lev.inner.Apply(lev.r, lev.c)
				x.AXPY(1, lev.c)
			}
		}
		return
	}
	// The power iteration runs in the level's idle vectors.
	lmax := krylov.EstimateLambdaMaxIn(op, lev.jac, eigIts, lev.r, lev.e, lev.b)
	if lev.cheb == nil {
		lev.cheb = krylov.NewChebyshev(op, lev.jac, lmax, sa.opt.SmoothSteps)
	}
	lev.cheb.SetLambdaMax(lmax)
	if lev.smooth == nil {
		lev.smooth = lev.cheb.Smooth
	}
}

// fixZeroDiag makes "dead" coarse dofs harmless: rank-deficient aggregates
// (e.g. aggregates dominated by Dirichlet-constrained fine dofs) produce
// zero prolongator columns and therefore zero rows/columns in the Galerkin
// product. Such rows get a unit diagonal so every coarse solve stays
// nonsingular; since their columns stay zero the added identity never
// pollutes live dofs. Only when a row is dead is the matrix rewritten —
// the triplet builder's result, the live rows' nonzero entries on live
// columns and a dead row's unit diagonal, built in the scratch matrix,
// whose storage then trades places with a's.
func (w *setupWork) fixZeroDiag(a *la.CSR) {
	n := a.NRows
	w.diag, w.dead = la.Resized(w.diag, n), la.Resized(w.dead, n)
	a.Diag(w.diag)
	var maxDiag float64
	for _, d := range w.diag {
		if m := math.Abs(d); m > maxDiag {
			maxDiag = m
		}
	}
	thr := 1e-12 * maxDiag
	anyDead := false
	for r, d := range w.diag {
		w.dead[r] = math.Abs(d) <= thr
		anyDead = anyDead || w.dead[r]
	}
	if !anyDead {
		return
	}
	b := &w.fixed
	b.NRows, b.NCols = a.NRows, a.NCols
	b.RowPtr, b.ColInd, b.Val = la.Resized(b.RowPtr, n+1), b.ColInd[:0], b.Val[:0]
	b.RowPtr[0] = 0
	for r := 0; r < n; r++ {
		if w.dead[r] {
			b.ColInd, b.Val = append(b.ColInd, r), append(b.Val, 1)
		} else {
			for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
				if c := a.ColInd[k]; !w.dead[c] && a.Val[k] != 0 {
					b.ColInd, b.Val = append(b.ColInd, c), append(b.Val, a.Val[k])
				}
			}
		}
		b.RowPtr[r+1] = len(b.Val)
	}
	*a, *b = *b, *a
}

// Apply runs one V-cycle: z ≈ A⁻¹·r. It panics on a hierarchy whose last
// Refresh failed: its levels may be half rewritten.
func (sa *SA) Apply(r, z la.Vec) {
	if sa.coarse == nil {
		panic("amg: V-cycle of a hierarchy whose last Refresh failed")
	}
	z.Zero()
	sa.cycles.Inc()
	sa.vcycle(0, r, z)
}

// vcycle improves x, zero on entry (every level is entered from a zero
// guess), towards A_l⁻¹·b by one V-cycle from level l down.
func (sa *SA) vcycle(l int, b, x la.Vec) {
	lev := sa.levels[l]
	if l == len(sa.levels)-1 {
		st := sa.coarseT.Start()
		sa.coarse.Apply(b, x)
		sa.coarseT.Stop(st)
		sa.coarseC.Inc()
		return
	}
	st := lev.smoothT.Start()
	lev.smooth(b, x, true)
	lev.smoothT.Stop(st)
	lev.smoothC.Inc()
	st = lev.opT.Start()
	lev.a.MulVecPar(x, lev.r, sa.opt.Workers)
	lev.opT.Stop(st)
	lev.opCount.Inc()
	lev.r.AYPX(-1, b)
	next := sa.levels[l+1]
	// Restrict: b_c = Pᵀ r.
	pt := next.p
	restrictT(pt, lev.r, next.b)
	next.e.Zero()
	sa.vcycle(l+1, next.b, next.e)
	// Prolong and correct.
	pmulAdd(pt, next.e, x)
	st = lev.smoothT.Start()
	lev.smooth(b, x, false)
	lev.smoothT.Stop(st)
	lev.smoothC.Inc()
}

// restrictT computes rc = Pᵀ·rf without materializing the transpose.
func restrictT(p *la.CSR, rf, rc la.Vec) {
	rc.Zero()
	for i := 0; i < p.NRows; i++ {
		v := rf[i]
		if v == 0 {
			continue
		}
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			rc[p.ColInd[k]] += p.Val[k] * v
		}
	}
}

// pmulAdd computes x += P·e.
func pmulAdd(p *la.CSR, e, x la.Vec) {
	for i := 0; i < p.NRows; i++ {
		var s float64
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			s += p.Val[k] * e[p.ColInd[k]]
		}
		x[i] += s
	}
}
