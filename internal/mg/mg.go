package mg

import (
	"fmt"
	"time"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// Level is one rung of the multigrid hierarchy. The operator is an
// internal/op representation; which one (matrix-free, resident,
// assembled, Galerkin) is entirely op's concern — this package never
// dispatches on it.
type Level struct {
	Prob *fem.Problem // discretization; Build sets it on every level
	Op   op.Operator
	// Smoother is the level's Jacobi-preconditioned Chebyshev smoother;
	// nil on the coarsest level, which the coarse solve handles.
	Smoother *krylov.Chebyshev
	// Blocked is the cache-blocked wavefront Chebyshev over the
	// operator's resident backing: non-nil exactly when a smoothed level's
	// operator has one (op.ResidentOf), and then the cycle smooths with it.
	// It computes the iterates of Smoother bit for bit; Smoother stays as
	// the full-grid form of the same recurrence — what levels without
	// resident backing run, and where distributed views read the interval.
	Blocked *fem.BlockedChebyshev
	P       *Prolongation // transfer to and from the next-finer level (nil on the finest)

	// Setup is what the last Build or Refresh spent on this level.
	Setup SetupTimes

	r, e, bc la.Vec // work vectors; the coarsest level has no r
}

// SetupTimes splits one level's set-up: Op is the operator's own Setup or
// Refresh (assembly, Galerkin product, resident coefficient stream), Diag
// the Jacobi diagonal, Eig the λmax power iteration behind the Chebyshev
// interval. Diag and Eig stay zero on the coarsest level.
type SetupTimes struct {
	Op, Diag, Eig time.Duration
}

// MG is a geometric multigrid V-cycle preconditioner for the viscous
// block. Levels[0] is finest. Every level but the coarsest smooths; the
// coarsest is solved by CoarseSolve, which must be set before the first
// Apply: an amg.SA V-cycle (the paper's GAMG coarse solver),
// krylov.BlockJacobi, or an InnerKrylov CG+ASM solve (rifting
// configuration).
type MG struct {
	Levels      []*Level
	CoarseSolve krylov.Preconditioner

	tel     []levelTel         // per-level instrument handles; empty when telemetry off
	cycles  *telemetry.Counter // V-cycles started
	coarseT *telemetry.Timer   // coarse-solve wall time
	coarseC *telemetry.Counter // coarse-solve applications

	whole cycle // the cycle's view of Levels, re-read by every Apply
}

// levelTel caches one level's telemetry handles. The zero value (all nil)
// records nothing: every instrument is nil-safe, so the disabled cost in
// the cycle is a handful of nil checks.
type levelTel struct {
	smooth, op, restrict, prolong *telemetry.Timer
	smooths, ops                  *telemetry.Counter
}

// lt returns the cached handles for level l, or inert handles when
// telemetry is off.
func (m *MG) lt(l int) levelTel {
	if l < len(m.tel) {
		return m.tel[l]
	}
	return levelTel{}
}

// SetTelemetry installs per-level instrumentation under sc: a child scope
// per smoothed level, level0…level(N−1), each with
// "smooth"/"op"/"restrict"/"prolong" timers and
// "smooth_applies"/"op_applies" counters, a "coarse" child with a "solve"
// timer and "solves" counter for the coarsest level, which the coarse
// solve handles, and a "cycles" counter on sc itself. Handles are cached
// here, so the cycle's hot path never takes the scope lock. Passing nil
// uninstalls.
func (m *MG) SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		m.tel, m.cycles, m.coarseT, m.coarseC = nil, nil, nil, nil
		return
	}
	m.tel = make([]levelTel, len(m.Levels)-1)
	for l := range m.tel {
		lsc := sc.Child(fmt.Sprintf("level%d", l))
		m.tel[l] = levelTel{
			smooth:   lsc.Timer("smooth"),
			op:       lsc.Timer("op"),
			restrict: lsc.Timer("restrict"),
			prolong:  lsc.Timer("prolong"),
			smooths:  lsc.Counter("smooth_applies"),
			ops:      lsc.Counter("op_applies"),
		}
	}
	csc := sc.Child("coarse")
	m.cycles = sc.Counter("cycles")
	m.coarseT = csc.Timer("solve")
	m.coarseC = csc.Counter("solves")
}

// Options configures Build.
type Options struct {
	// Kinds is the representation of every level, Kinds[0] the finest —
	// an op.Layout.
	Kinds       []op.Kind
	SmoothSteps int // Chebyshev steps: V(k,k) uses k (paper: 2 or 3)
	Workers     int
	// FineOp, when non-nil, is used as the finest level's operator
	// instead of building one from Kinds[0] (it must discretize
	// probs[0]). The coupled Stokes solver passes its fine viscous
	// operator here so it is constructed exactly once.
	FineOp op.Operator
}

// Build wires a multigrid hierarchy from per-level discretizations
// (probs[0] finest) and per-level operator kinds. Every level gets its
// operator, set up; every level but the coarsest its smoother. The
// coarsest level carries no smoother and the coarse solver is left nil:
// callers must set CoarseSolve (or call UseBlockJacobiCoarse) before the
// first Apply.
func Build(probs []*fem.Problem, opt Options) (*MG, error) {
	if len(probs) < 2 {
		return nil, fmt.Errorf("mg: need at least 2 levels, got %d", len(probs))
	}
	if len(opt.Kinds) != len(probs) {
		return nil, fmt.Errorf("mg: %d kinds for %d levels", len(opt.Kinds), len(probs))
	}
	if opt.SmoothSteps <= 0 {
		opt.SmoothSteps = 2
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	m := &MG{}
	for l, p := range probs {
		p.Workers = opt.Workers
		lev := &Level{Prob: p}
		if l > 0 {
			fp := probs[l-1]
			lev.P = NewProlongation(fp.DA, p.DA, fp.BC, p.BC)
			lev.P.Workers = opt.Workers
		}
		if l == 0 && opt.FineOp != nil {
			lev.Op = opt.FineOp
		} else {
			env := op.Env{Prob: p, Workers: opt.Workers}
			if l > 0 {
				finer := m.Levels[l-1]
				env.FineCSR = func() *la.CSR { return finer.Op.CSR() }
				env.FineProb = probs[l-1]
				env.Prolong = lev.P.ToCSR
			}
			o, err := op.New(opt.Kinds[l], env)
			if err != nil {
				return nil, fmt.Errorf("mg: level %d (%v): %w", l, opt.Kinds[l], err)
			}
			lev.Op = o
		}
		start := time.Now()
		if err := lev.Op.Setup(); err != nil {
			return nil, fmt.Errorf("mg: level %d setup: %w", l, err)
		}
		lev.Setup.Op = time.Since(start)
		n := lev.Op.N()
		lev.e, lev.bc = la.NewVec(n), la.NewVec(n)
		if l < len(probs)-1 {
			lev.r = la.NewVec(n)
			buildSmoother(lev, opt.SmoothSteps)
		}
		m.Levels = append(m.Levels, lev)
	}
	return m, nil
}

// eigIts is the power-iteration count of every smoother's λmax estimate,
// cold build and refresh alike.
const eigIts = 10

// buildSmoother (re)builds a level's Jacobi-preconditioned Chebyshev
// smoother (paper §III-C) targeting [0.2λmax, 1.1λmax]. Representations
// guarantee a nonzero diagonal (unit entries on constrained rows), so no
// per-representation fix-up is needed. A level with resident backing gets
// the wavefront-blocked form of the same recurrence. A rebuild refreshes
// the level's smoothers in place: the diagonal and the power iteration
// run in the level's cycle vectors, idle during set-up, and the Jacobi
// diagonal and both smoothers keep their storage.
func buildSmoother(lev *Level, steps int) {
	start := time.Now()
	diag := lev.bc
	diag.Zero()
	lev.Op.Diag(diag)
	jac := &krylov.Jacobi{}
	if lev.Smoother != nil {
		jac = lev.Smoother.M
	}
	jac.SetDiag(diag)
	lev.Setup.Diag = time.Since(start)
	start = time.Now()
	lmax := krylov.EstimateLambdaMaxIn(lev.Op, jac, eigIts, lev.r, lev.e, lev.bc)
	lev.Setup.Eig = time.Since(start)
	if lev.Smoother == nil {
		lev.Smoother = krylov.NewChebyshev(lev.Op, jac, lmax, steps)
	} else {
		lev.Smoother.A, lev.Smoother.Steps = lev.Op, steps
		lev.Smoother.SetLambdaMax(lmax)
	}
	res := op.ResidentOf(lev.Op)
	switch {
	case res == nil:
		lev.Blocked = nil
	case lev.Blocked == nil || lev.Blocked.R != res:
		lev.Blocked = fem.NewBlockedChebyshev(res, jac.InvDiag, lmax, steps)
	default:
		lev.Blocked.InvDiag, lev.Blocked.Steps = jac.InvDiag, steps
		lev.Blocked.SetLambdaMax(lmax)
	}
}

// Refresh re-derives every level's numeric content from the (already
// updated) per-level problem coefficients, in place: operators refresh
// finest→coarsest so Galerkin levels read the refreshed finer matrix,
// then each smoothed level's smoother is rebuilt exactly as Build builds
// it — same Jacobi diagonal, same deterministic λmax power iteration,
// same Chebyshev interval and step count — so a refreshed hierarchy is
// bit-identical to one constructed cold on the same coefficients. The
// transfer operators, work vectors and coarse-solver wiring are purely
// topological and survive untouched (the caller owns CoarseSolve and must
// rebuild it from the refreshed coarsest matrix).
func (m *MG) Refresh() error {
	for l, lev := range m.Levels {
		start := time.Now()
		if err := lev.Op.Refresh(); err != nil {
			return fmt.Errorf("mg: level %d refresh: %w", l, err)
		}
		lev.Setup.Op = time.Since(start)
		if lev.Smoother != nil {
			buildSmoother(lev, lev.Smoother.Steps)
		}
	}
	return nil
}

// LevelInfo states what one level of the hierarchy in use runs: a run
// record carries it so the path taken can be read without the flags.
type LevelInfo struct {
	Level int `json:"level"`
	N     int `json:"n"`
	// Kind is the operator representation applied.
	Kind string `json:"kind"`
	// Smoother is "blocked" (wavefront Chebyshev over the resident
	// kernel), "chebyshev" (the full-grid recurrence) or, on the coarsest
	// level, "coarse-solve".
	Smoother string `json:"smoother"`
	// Degree is the Chebyshev degree k of V(k,k); 0 under "coarse-solve".
	Degree int `json:"degree"`
}

// String renders the level as one line of driver output.
func (li LevelInfo) String() string {
	s := fmt.Sprintf("level %d (n=%d): %s, %s", li.Level, li.N, li.Kind, li.Smoother)
	if li.Degree > 0 {
		s += fmt.Sprintf(" degree %d", li.Degree)
	}
	return s
}

// Describe reports every level of the hierarchy as it is now.
func (m *MG) Describe() []LevelInfo {
	out := make([]LevelInfo, len(m.Levels))
	for l, lev := range m.Levels {
		li := LevelInfo{Level: l, N: lev.Op.N(), Kind: lev.Op.Kind().String(), Smoother: "coarse-solve"}
		if lev.Smoother != nil {
			li.Smoother, li.Degree = "chebyshev", lev.Smoother.Steps
			if lev.Blocked != nil {
				li.Smoother = "blocked"
			}
		}
		out[l] = li
	}
	return out
}

// UseBlockJacobiCoarse installs a block-Jacobi + exact-LU coarse solver on
// the coarsest level (which must have an assembled representation).
func (m *MG) UseBlockJacobiCoarse(nblocks int) error {
	last := m.Levels[len(m.Levels)-1]
	a := last.Op.CSR()
	if a == nil {
		return fmt.Errorf("mg: coarsest level is not assembled")
	}
	bj, err := krylov.NewBlockJacobi(a, nblocks)
	if err != nil {
		return err
	}
	m.CoarseSolve = bj
	return nil
}

// Apply runs one V-cycle as a preconditioner: z ≈ A⁻¹·r.
func (m *MG) Apply(r, z la.Vec) {
	z.Zero()
	m.cycles.Inc()
	m.view().run(r, z)
}

// view returns the cycle over the whole grid: every smoothed level's
// operator and smoother — blocked on resident-backed levels — and every
// level's transfer and work vectors, with nil spans. Levels is read
// afresh on every call: Refresh replaces the smoothers, callers may
// replace CoarseSolve.
func (m *MG) view() *cycle {
	c := &m.whole
	if len(c.lev) != len(m.Levels) {
		c.lev = make([]levelView, len(m.Levels))
		c.coarsest = m.solveCoarse
	}
	c.workers = 1
	if p := m.Levels[0].Prob; p != nil {
		c.workers = p.Workers
	}
	for l, lev := range m.Levels {
		v := levelView{p: lev.P, e: lev.e, bc: lev.bc, tel: m.lt(l)}
		if lev.Smoother != nil {
			v.op, v.smoother, v.r = lev.Op, lev.Smoother, lev.r
			if lev.Blocked != nil {
				v.smoother = lev.Blocked
			}
		}
		c.lev[l] = v
	}
	return c
}

// solveCoarse applies CoarseSolve, timed and counted in the "coarse"
// scope: the one record of a coarse solve, on a rank as in shared memory.
func (m *MG) solveCoarse(b, x la.Vec) {
	st := m.coarseT.Start()
	m.CoarseSolve.Apply(b, x)
	m.coarseT.Stop(st)
	m.coarseC.Inc()
}
