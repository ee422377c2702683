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
// coarse solve handles, has no smoother and no r.
type level struct {
	a       *la.CSR
	p       *la.CSR // prolongation into the next-finer level (nil on the finest)
	smooth  func(b, x la.Vec, zero bool)
	r, e, b la.Vec
	c       la.Vec // the ILU smoother's correction; nil for Chebyshev

	// Cached telemetry handles; nil (inert) when telemetry is off.
	smoothT, opT     *telemetry.Timer
	smoothC, opCount *telemetry.Counter
}

// SA is the assembled smoothed-aggregation hierarchy. It satisfies
// krylov.Preconditioner (one V-cycle per application).
type SA struct {
	levels []*level
	coarse krylov.Preconditioner
	opt    Options

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
// nns (rows = dofs of a, cols = modes; typically RigidBodyModes). nns is
// consumed (modified).
func New(a *la.CSR, bs int, nns *la.Dense, opt Options) (*SA, error) {
	if a.NRows != nns.Rows {
		return nil, fmt.Errorf("amg: near-null space rows %d != matrix dim %d", nns.Rows, a.NRows)
	}
	sa := &SA{opt: opt}
	sa.levels = append(sa.levels, &level{a: a})
	curBS := bs
	curNNS := nns
	for {
		cur := sa.levels[len(sa.levels)-1].a
		if cur.NRows <= maxCoarseSize || len(sa.levels) >= maxLevels {
			break
		}
		p, coarseNNS := buildProlongator(cur, curBS, curNNS, opt.DropTol)
		if p == nil || p.NCols >= cur.NRows { // aggregation stalled
			break
		}
		ac := la.RAP(cur, p)
		fixZeroDiag(ac)
		sa.levels = append(sa.levels, &level{a: ac, p: p})
		curNNS = coarseNNS
		curBS = coarseNNS.Cols
	}
	last := len(sa.levels) - 1
	for _, lev := range sa.levels[:last] {
		sa.installSmoother(lev)
		n := lev.a.NRows
		lev.r, lev.e, lev.b = la.NewVec(n), la.NewVec(n), la.NewVec(n)
	}
	coarsest := sa.levels[last]
	n := coarsest.a.NRows
	coarsest.e, coarsest.b = la.NewVec(n), la.NewVec(n)
	// One block: an exact LU solve of the coarsest level.
	lu, err := krylov.NewBlockJacobi(coarsest.a, 1)
	if err != nil {
		return nil, fmt.Errorf("amg: coarse factorization: %w", err)
	}
	sa.coarse = lu
	return sa, nil
}

// installSmoother attaches the configured smoother to a level.
func (sa *SA) installSmoother(lev *level) {
	a := lev.a
	d := la.NewVec(a.NRows)
	a.Diag(d)
	for i, v := range d {
		if v == 0 {
			d[i] = 1
		}
	}
	jac := krylov.NewJacobi(d)
	op := krylov.OpFunc{Dim: a.NRows, F: func(x, y la.Vec) { a.MulVecPar(x, y, sa.opt.Workers) }}
	if sa.opt.ILUSmoother {
		// FGMRES(2) preconditioned with block-Jacobi ILU(0): the SAML-ii
		// smoother. Block Jacobi here means ILU(0) of the whole level in
		// our single-address-space setting (one "subdomain").
		ilu, err := krylov.NewILUPC(a)
		var pc krylov.Preconditioner = jac
		if err == nil {
			pc = ilu
		}
		inner := &krylov.InnerKrylov{A: op, M: pc, Method: "fgmres",
			Prm: krylov.Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 2, Restart: 2}}
		// The post-smooth's residual goes to the level's r, free once the
		// coarse correction is in; its correction to c (e is the iterate
		// itself below the finest level).
		lev.c = la.NewVec(a.NRows)
		lev.smooth = func(b, x la.Vec, zero bool) {
			if zero {
				inner.Apply(b, x)
				return
			}
			op.Apply(x, lev.r)
			lev.r.AYPX(-1, b)
			inner.Apply(lev.r, lev.c)
			x.AXPY(1, lev.c)
		}
		return
	}
	lmax := krylov.EstimateLambdaMax(op, jac, eigIts)
	ch := krylov.NewChebyshev(op, jac, lmax, sa.opt.SmoothSteps)
	lev.smooth = func(b, x la.Vec, zero bool) { ch.Smooth(b, x, zero) }
}

// fixZeroDiag makes "dead" coarse dofs harmless: rank-deficient aggregates
// (e.g. aggregates dominated by Dirichlet-constrained fine dofs) produce
// zero prolongator columns and therefore zero rows/columns in the Galerkin
// product. Such rows get a unit diagonal so every coarse solve stays
// nonsingular; since their columns stay zero the added identity never
// pollutes live dofs. The matrix is rebuilt only when needed.
func fixZeroDiag(a *la.CSR) {
	var maxDiag float64
	dead := make([]bool, a.NRows)
	anyDead := false
	for r := 0; r < a.NRows; r++ {
		d := a.At(r, r)
		if m := math.Abs(d); m > maxDiag {
			maxDiag = m
		}
	}
	thr := 1e-12 * maxDiag
	for r := 0; r < a.NRows; r++ {
		if math.Abs(a.At(r, r)) <= thr {
			dead[r] = true
			anyDead = true
		}
	}
	if !anyDead {
		return
	}
	b := la.NewBuilder(a.NRows, a.NCols)
	for r := 0; r < a.NRows; r++ {
		if dead[r] {
			b.Set(r, r, 1)
			continue
		}
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if c := a.ColInd[k]; !dead[c] {
				b.Add(r, c, a.Val[k])
			}
		}
	}
	*a = *b.ToCSR()
}

// Apply runs one V-cycle: z ≈ A⁻¹·r.
func (sa *SA) Apply(r, z la.Vec) {
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
