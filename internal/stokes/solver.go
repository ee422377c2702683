package stokes

import (
	"fmt"
	"time"

	"ptatin3d/internal/amg"
	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// Config selects one of the paper's solver configurations.
type Config struct {
	// Levels is the geometric multigrid depth. Levels == 1 selects a pure
	// algebraic preconditioner on the assembled fine operator (the SA-i /
	// SAML-* rows of Table IV).
	Levels int
	// FineKind picks the fine-level operator representation: op.TensorC,
	// the resident stored-coefficient kernel, by default; op.Tensor,
	// op.MFRef, op.Assembled are the Tens/MF/Asmb columns of Tables I–III,
	// and op.Galerkin is shorthand for the GMG-ii layout: assembled fine
	// level with Galerkin products on every coarse level. op.Layout turns
	// it into the coupled matvec's kind and every level's; every level
	// with resident backing smooths wavefront-blocked.
	FineKind op.Kind
	// SmoothSteps is the Chebyshev degree: V(k,k) (paper uses 2 or 3).
	SmoothSteps int
	// CoarseSolver: "gamg" (one SA V-cycle, the paper's default) or
	// "asmcg" (CG preconditioned by ASM(8 subdomains, overlap 4, ILU(0)),
	// max 25 iterations — the rifting configuration of §V-A).
	CoarseSolver string
	// AMGConfig selects the algebraic preconditioner when Levels == 1:
	// "gamg", "ml" (SAML-i) or "mlstrong" (SAML-ii).
	AMGConfig string
	// OuterMethod: "gcr" (paper's preference — explicit residual) or
	// "fgmres" (better numerical stability for extreme contrast); New
	// rejects anything else.
	OuterMethod string
	// Params controls the outer Krylov iteration (rtol 1e-5 in the paper).
	// FGMRES discards its Krylov space at every restart, and with
	// viscosity contrasts Δη ≥ 1e5 the default Restart window of 50 can
	// stall just short of the tolerance; high-contrast configurations
	// should raise it (the Δη=1e6 parity runs use 200).
	Params krylov.Params
	// Telemetry, when non-nil, is the scope the solver instruments itself
	// under: "outer" (matmult/pcapply timers, setup_seconds gauge and the
	// setup_* stage timers that attribute it), "krylov" (outer iteration
	// counters + residual trace), "mg"/"amg" (per-level cycle breakdowns
	// and the coarse solve). When nil the solver records into a private
	// registry, so Tel's timers stay live.
	Telemetry *telemetry.Scope
	// Workers is the intra-node parallel width ("cores").
	Workers int
	// CoeffCoarsen fills coarse-level coefficients (see mg.CoarsenProblems).
	CoeffCoarsen func(level int, p *fem.Problem)
	// VerticalAxis is the gravity direction (for residual monitoring).
	VerticalAxis int
}

// DefaultConfig returns the paper's production configuration: 3 levels,
// matrix-free resident tensor kernel on the two finer ones, V(2,2),
// Galerkin coarsest operator, one GAMG V-cycle as coarse solver, GCR
// outer to rtol 1e-5 (§IV-A).
func DefaultConfig() Config {
	prm := krylov.DefaultParams()
	prm.RTol = 1e-5
	prm.MaxIt = 500
	prm.Restart = 50
	return Config{
		Levels:       3,
		FineKind:     op.TensorC,
		SmoothSteps:  2,
		CoarseSolver: "gamg",
		OuterMethod:  "gcr",
		Params:       prm,
		Workers:      1,
		VerticalAxis: 2,
	}
}

// Solver is a configured coupled Stokes solver.
type Solver struct {
	Cfg  Config
	Prob *fem.Problem
	Op   *Op
	C    *fem.Coupling
	Mp   *fem.PressureMass
	FS   *FieldSplit
	MG   *mg.MG  // nil for pure-AMG configurations
	SA   *amg.SA // the coarse/standalone algebraic component, if any

	// Tel is the telemetry scope the solver records under: Config.Telemetry
	// when provided, otherwise the root of a private registry.
	Tel *telemetry.Scope

	// SetupTime is the last New or Refresh (Table IV's PC set-up column);
	// the other columns are Tel's "outer" matmult and pcapply timers.
	SetupTime time.Duration

	// auu is Op.Auu as op built it: the hierarchy's level 0, which
	// MG.Refresh refreshes, or the standalone-AMG configuration's fine
	// operator, which Refresh refreshes itself.
	auu op.Operator

	// amgVA backs the standalone-AMG configuration (Levels <= 1) when the
	// fine operator has no assembled form of its own: the assembly is
	// cached so Refresh recomputes values in place instead of
	// re-deriving the sparsity.
	amgVA *fem.ViscousAssembly
	amgA  *la.CSR

	// coarseASM is the "asmcg" coarse solver's Schwarz preconditioner and
	// coarseASMMat the coarsest-level matrix it was built on: while
	// Refresh finds that matrix refreshed in place, the ASM is refreshed
	// numerically instead of being regrown.
	coarseASM    *krylov.ASM
	coarseASMMat *la.CSR

	// Work keeps the Krylov basis of the coupled solve between solves
	// (krylov.Params.Work): LinearSolve lends it to every shared-memory
	// solve, the time loop's included, whose solver outlives the step.
	Work krylov.Workspace

	// dcache holds the distributed decompositions, per-rank layouts and
	// rank views of the last world shape — topological, or refreshed in
	// place, so they survive coefficient refreshes and ALE coordinate
	// updates.
	dcache distCache
}

// distCache caches the per-level decompositions and [level][rank]
// layouts of one world shape, and each rank's view of the solve, built by
// the rank's first solve on the shape.
type distCache struct {
	px, py, pz int
	decomps    []*comm.Decomp
	layouts    [][]*comm.Layout
	ranks      []*rankView
}

// Monitor records the per-iteration field residual norms of a GCR solve —
// the data behind Figure 2 (vertical momentum vs. pressure residual).
type Monitor struct {
	Iter     []int
	Momentum []float64 // full velocity residual norm
	Vertical []float64 // vertical momentum component
	Pressure []float64
}

// New builds a Solver for the problem's current coefficients/geometry.
func New(prob *fem.Problem, cfg Config) (*Solver, error) {
	start := time.Now()
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if err := krylov.CheckMethod(cfg.OuterMethod); err != nil {
		return nil, fmt.Errorf("stokes: outer method: %w", err)
	}
	coupled, kinds, err := op.Layout(cfg.Levels, cfg.FineKind)
	if err != nil {
		return nil, fmt.Errorf("stokes: %w", err)
	}
	prob.Workers = cfg.Workers
	s := &Solver{Cfg: cfg, Prob: prob}
	s.Tel = cfg.Telemetry
	if s.Tel == nil {
		// Private registry: the timers stay live with telemetry "off".
		s.Tel = telemetry.New().Root()
	}
	stop := s.stage("coupling")
	s.C = prob.Coupling()
	stop()
	stop = s.stage("pressure_mass")
	s.Mp, err = fem.NewPressureMass(prob)
	stop()
	if err != nil {
		return nil, fmt.Errorf("stokes: pressure mass: %w", err)
	}

	// The coupled matvec's viscous operator.
	auu, err := op.New(coupled, op.Env{Prob: prob, Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("stokes: fine operator: %w", err)
	}
	stop = s.stage("fine_op")
	err = auu.Setup()
	stop()
	if err != nil {
		return nil, fmt.Errorf("stokes: fine operator setup: %w", err)
	}
	s.Op, s.auu = NewOp(prob, auu, s.C), auu

	// Viscous-block preconditioner.
	var innerU krylov.Preconditioner
	if cfg.Levels <= 1 {
		if a := auu.CSR(); a != nil {
			s.amgA = a
		} else {
			stop := s.stage("amg_matrix")
			s.amgVA = fem.NewViscousAssembly(prob)
			stop()
			s.amgA = s.amgVA.A
		}
		if err := s.buildAMG(); err != nil {
			return nil, err
		}
		innerU = s.SA
	} else {
		stop := s.stage("coarsen")
		probs := mg.CoarsenProblems(prob, cfg.Levels, cfg.CoeffCoarsen)
		stop()
		// The hierarchy's level 0 is the coupled operator, built once.
		gmg, err := mg.Build(probs, mg.Options{
			Kinds:       kinds,
			SmoothSteps: cfg.SmoothSteps,
			Workers:     cfg.Workers,
			FineOp:      auu,
		})
		if err != nil {
			return nil, fmt.Errorf("stokes: GMG setup: %w", err)
		}
		s.MG = gmg
		s.observeLevels()
		if err := s.buildCoarseSolver(); err != nil {
			return nil, err
		}
		gmg.SetTelemetry(s.Tel.Child("mg"))
		innerU = gmg
	}
	if s.SA != nil {
		s.SA.SetTelemetry(s.Tel.Child("amg"))
	}
	s.FS = NewFieldSplit(s.Op, innerU, s.Mp)
	if s.Cfg.Params.Telemetry == nil {
		s.Cfg.Params.Telemetry = s.Tel.Child("krylov")
	}
	s.SetupTime = time.Since(start)
	s.Tel.Child("outer").Gauge("setup_seconds").Set(s.SetupTime.Seconds())
	return s, nil
}

// stage starts one stage of New or Refresh on the "outer" scope's timer
// setup_<name> and returns what ends it: together the stage timers say
// where setup_seconds went.
// Stages are coupling (the problem's Coupling taken, its blocks
// recomputed if the mesh moved), pressure_mass, geometry (coarse
// coordinates and boundary values re-injected at Refresh), coarsen
// (coarse meshes at New, coarse coefficients), fine_op (the coupled
// matvec's operator where the hierarchy does not refresh it as its level
// 0), per hierarchy level op_l<i>_<kind> and, on every level but the
// coarsest, diag_l<i> / eig_l<i> (mg.SetupTimes), coarse_solver, and
// amg_matrix / amg for the standalone algebraic configurations.
func (s *Solver) stage(name string) (stop func()) {
	t := s.Tel.Child("outer").Timer("setup_" + name)
	start := t.Start()
	return func() { t.Stop(start) }
}

// observeLevels records what the hierarchy's Build or Refresh just spent
// per level as stages; the coarsest level, which the coarse solve
// handles, has no smoother to time.
func (s *Solver) observeLevels() {
	outer := s.Tel.Child("outer")
	for l, lev := range s.MG.Levels {
		outer.Timer(fmt.Sprintf("setup_op_l%d_%v", l, lev.Op.Kind())).Observe(lev.Setup.Op)
		if lev.Smoother != nil {
			outer.Timer(fmt.Sprintf("setup_diag_l%d", l)).Observe(lev.Setup.Diag)
			outer.Timer(fmt.Sprintf("setup_eig_l%d", l)).Observe(lev.Setup.Eig)
		}
	}
}

// The "asmcg" coarse solver's one configuration: subdomain count and
// overlap (§V-A).
const (
	asmSubdomains = 8
	asmOverlap    = 4
)

// buildCoarseSolver installs the coarsest-level solver, built from the
// hierarchy's assembled coarse matrix (op.Operator.CSR — the op layer's
// coarse-level handoff to the algebraic solvers) at its current values.
// An "asmcg" solver whose matrix was refreshed in place keeps its
// topology and only refactors.
func (s *Solver) buildCoarseSolver() error {
	defer s.stage("coarse_solver")()
	cfg := s.Cfg
	last := s.MG.Levels[len(s.MG.Levels)-1]
	a := last.Op.CSR()
	if a == nil {
		return fmt.Errorf("stokes: coarsest GMG level must be assembled")
	}
	if s.coarseASM != nil && a == s.coarseASMMat {
		if err := s.coarseASM.Refresh(a); err != nil {
			return fmt.Errorf("stokes: ASM coarse solver: %w", err)
		}
		return nil
	}
	var coarse krylov.Preconditioner
	s.SA, s.coarseASM, s.coarseASMMat = nil, nil, nil
	switch cfg.CoarseSolver {
	case "", "gamg":
		opt := amg.GAMGLike()
		opt.SmoothSteps = max(1, cfg.SmoothSteps)
		opt.Workers = cfg.Workers
		sa, err := amg.New(a, 3, amg.RigidBodyModes(last.Prob.DA.Coords, last.Prob.BC.Mask), opt)
		if err != nil {
			return fmt.Errorf("stokes: GAMG coarse solver: %w", err)
		}
		coarse, s.SA = sa, sa
	case "asmcg":
		asmPC, err := krylov.NewASM(a, krylov.ASMOptions{Subdomains: asmSubdomains, Overlap: asmOverlap, Workers: cfg.Workers})
		if err != nil {
			return fmt.Errorf("stokes: ASM coarse solver: %w", err)
		}
		s.coarseASM, s.coarseASMMat = asmPC, a
		// CG multiplies through the level's own operator: the worker-
		// parallel SpMV of the same matrix, row sums unchanged.
		coarse = &krylov.InnerKrylov{
			A: last.Op, M: asmPC, Method: "cg",
			Prm: krylov.Params{RTol: 1e-4, ATol: 1e-300, MaxIt: 25},
		}
	default:
		return fmt.Errorf("stokes: unknown coarse solver %q", cfg.CoarseSolver)
	}
	s.MG.CoarseSolve = coarse
	return nil
}

// buildAMG constructs the standalone algebraic preconditioner (Levels <=
// 1 configurations) from the assembled viscous block amgA into s.SA.
func (s *Solver) buildAMG() error {
	defer s.stage("amg")()
	cfg := s.Cfg
	opt := amg.GAMGLike()
	switch cfg.AMGConfig {
	case "ml":
		opt = amg.MLLike()
	case "mlstrong":
		opt = amg.MLStrongLike()
	}
	opt.SmoothSteps = max(1, cfg.SmoothSteps)
	opt.Workers = cfg.Workers
	sa, err := amg.New(s.amgA, 3, amg.RigidBodyModes(s.Prob.DA.Coords, s.Prob.BC.Mask), opt)
	if err != nil {
		return fmt.Errorf("stokes: AMG setup: %w", err)
	}
	s.SA = sa
	return nil
}

// Refresh re-derives the solver's numeric state from the problem's
// current coordinates and coefficients without rebuilding any topology:
// the coarse levels' coordinates and boundary values are re-injected and
// the problem's Coupling taken as it is now (a mesh move is read from the
// coordinates; unmoved ones re-inject the same bits and leave the blocks
// alone), coarse-level coefficients are re-restricted through the
// configured coarsener, assembled/Galerkin/resident operator values are
// recomputed in place into their cached sparsity, smoother spectra are
// re-estimated exactly as a cold build would, and the value-dependent
// algebraic components are rebuilt (GAMG/LU coarse solvers) or refactored
// on their kept topology (ASM) from the refreshed coarse matrices. The
// result is bit-identical to constructing a new Solver on the same state;
// only the setup cost changes.
func (s *Solver) Refresh() error {
	start := time.Now()
	// The coarse coordinates first: FuncCoeffCoarsener reads them.
	if s.MG != nil {
		stop := s.stage("geometry")
		for l := 1; l < len(s.MG.Levels); l++ {
			fp, cp := s.MG.Levels[l-1].Prob, s.MG.Levels[l].Prob
			mesh.RefreshCoarsenCoords(fp.DA, cp.DA)
			mesh.RefreshCoarsenBCVals(fp.DA, cp.DA, fp.BC, cp.BC)
		}
		stop()
	}
	stop := s.stage("coupling")
	s.C = s.Prob.Coupling()
	stop()
	// Re-restrict the coarse coefficients in CoarsenProblems level order.
	if s.MG != nil && s.Cfg.CoeffCoarsen != nil {
		stop := s.stage("coarsen")
		for l := 1; l < len(s.MG.Levels); l++ {
			s.Cfg.CoeffCoarsen(l, s.MG.Levels[l].Prob)
		}
		stop()
	}
	// The pressure mass matrix is viscosity-scaled: always re-derive.
	stop = s.stage("pressure_mass")
	err := s.Mp.Setup()
	stop()
	if err != nil {
		return fmt.Errorf("stokes: pressure mass: %w", err)
	}
	if s.MG != nil {
		// The coupled matvec's operator is the hierarchy's level 0, which
		// MG.Refresh refreshes.
		if err := s.MG.Refresh(); err != nil {
			return fmt.Errorf("stokes: %w", err)
		}
		s.observeLevels()
		if err := s.buildCoarseSolver(); err != nil {
			return err
		}
	} else {
		stop := s.stage("fine_op")
		err := s.auu.Refresh()
		stop()
		if err != nil {
			return fmt.Errorf("stokes: fine operator refresh: %w", err)
		}
		if s.amgVA != nil {
			stop := s.stage("amg_matrix")
			s.amgVA.Refresh()
			stop()
		}
		if err := s.buildAMG(); err != nil {
			return err
		}
		s.FS.InnerU = s.SA
	}
	if s.SA != nil {
		s.SA.SetTelemetry(s.Tel.Child("amg"))
	}
	s.SetupTime = time.Since(start)
	s.Tel.Child("outer").Gauge("setup_seconds").Set(s.SetupTime.Seconds())
	return nil
}

// Solve performs one linear Stokes solve in residual-correction form: the
// state x = [u;p] (with boundary values applied to u) is improved so that
// J·x ≈ [bu;0] to the configured tolerance of the *unpreconditioned*
// residual, with the configured outer method and, should it break down,
// once more with the other (krylov.SolveWithFallback; the "outer" scope
// counts breakdown_recoveries and breakdowns_recovered). A non-nil
// monitor collects the Figure-2 residual histories.
func (s *Solver) Solve(x, bu la.Vec, mon *Monitor) krylov.Result {
	prm := s.Cfg.Params
	if mon != nil {
		// Only GCR carries an explicit residual to monitor; FGMRES ignores
		// the field.
		prm.Monitor = func(it int, r la.Vec) {
			uN, vN, pN := s.Op.FieldNorms(r, s.Cfg.VerticalAxis)
			mon.Iter = append(mon.Iter, it)
			mon.Momentum = append(mon.Momentum, uN)
			mon.Vertical = append(mon.Vertical, vN)
			mon.Pressure = append(mon.Pressure, pN)
		}
	}
	res, _ := s.correct(x, bu, func(f, delta la.Vec) (krylov.Result, error) {
		res, alt := krylov.SolveWithFallback(s.Cfg.OuterMethod, delta, func(method string) krylov.Result {
			return s.LinearSolve(method, s.Op, s.FS, f, delta, prm)
		})
		if alt != "" {
			outer := s.Tel.Child("outer")
			outer.Counter("breakdown_recoveries").Inc()
			if res.Err == nil {
				outer.Counter("breakdowns_recovered").Inc()
			}
		}
		return res, nil
	})
	return res
}

// correct is the residual-correction form of Solve and SolveDistributed:
// solve gets −F(x) = [bu;0] − J·x and a zeroed correction δ, and x += δ
// unless it returns an error.
func (s *Solver) correct(x, bu la.Vec, solve func(f, delta la.Vec) (krylov.Result, error)) (krylov.Result, error) {
	n := s.Op.N()
	f := la.NewVec(n)
	s.Op.Residual(x, bu, f)
	f.Scale(-1)
	delta := la.NewVec(n)
	res, err := solve(f, delta)
	if err == nil {
		x.AXPY(1, delta)
	}
	return res, err
}

// LinearSolve solves J·δ = rhs in shared memory with the named outer
// method, writing the correction into delta: the one shared-memory
// inner-solve entry, of Solve and of the time loop's shared backend
// alike. jop is s.Op or a linearisation on the same problem, pc the
// solver's field split or a wrapper of it. The solve borrows s.Work,
// records under the solver's krylov scope unless prm names another, and
// times every application of jop and pc into the "outer" scope's
// matmult and pcapply timers (Table IV's MatMult and PC apply columns).
func (s *Solver) LinearSolve(method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	prm.Work = &s.Work
	if prm.Telemetry == nil {
		prm.Telemetry = s.Cfg.Params.Telemetry
	}
	matmult, pcapply := s.applyTimers()
	return krylov.Solve(method, timedOp{jop, matmult}, timedPC{pc, pcapply}, rhs, delta, prm)
}

// applyTimers returns the "outer" scope's operator and preconditioner
// application timers.
func (s *Solver) applyTimers() (matmult, pcapply *telemetry.Timer) {
	outer := s.Tel.Child("outer")
	return outer.Timer("matmult"), outer.Timer("pcapply")
}

// timedOp times every application of an operator into t.
type timedOp struct {
	krylov.Op
	t *telemetry.Timer
}

func (o timedOp) Apply(x, y la.Vec) {
	st := o.t.Start()
	o.Op.Apply(x, y)
	o.t.Stop(st)
}

// timedPC times every application of a preconditioner into t.
type timedPC struct {
	krylov.Preconditioner
	t *telemetry.Timer
}

func (p timedPC) Apply(r, z la.Vec) {
	st := p.t.Start()
	p.Preconditioner.Apply(r, z)
	p.t.Stop(st)
}
