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
	// it and Precision into the coupled matvec's kind and every level's;
	// every level with resident backing smooths wavefront-blocked.
	FineKind op.Kind
	// Precision runs the V-cycle's operator stack at the given width:
	// op.F32 halves smoother memory traffic while the outer GCR/FGMRES
	// iteration — and the residuals it reports — stay float64: the
	// hierarchy then builds its own float32 fine operator beside the
	// coupled float64 one. Ignored when Levels <= 1.
	Precision op.Precision
	// SmoothSteps is the Chebyshev degree: V(k,k) (paper uses 2 or 3).
	SmoothSteps int
	// CoarseSolver: "gamg" (one SA V-cycle, the paper's default), "lu",
	// "bjacobi" (8 blocks), or "asmcg" (CG preconditioned by ASM(8
	// subdomains, overlap 4, ILU(0)), max 25 iterations — the rifting
	// configuration of §V-A).
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
	// under: "outer" (matmult/pcapply/coarse timers, setup_seconds gauge
	// and the setup_* stage timers that attribute it),
	// "krylov" (outer iteration counters + residual trace), "mg"/"amg"
	// (per-level cycle breakdowns). When nil the solver still wires its
	// probes to a private registry so MatMult/PCApply counts stay live.
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

	// Instrumentation (Table IV columns).
	SetupTime   time.Duration
	MatMult     *OpProbe
	PCApply     *PCProbe
	CoarseApply *PCProbe // wraps the coarse-grid solver inside MG

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
	// (krylov.Params.Work): Solve lends it, and so does the shared backend
	// of the time loop, whose solver outlives the step.
	Work krylov.Workspace

	// dcache holds the distributed decompositions and per-rank layouts of
	// the last world shape — purely topological, so they survive
	// coefficient refreshes and ALE coordinate updates.
	dcache distCache
}

// distCache caches the per-level decompositions and [level][rank]
// layouts of one world shape, and each rank's Krylov workspace.
type distCache struct {
	px, py, pz int
	decomps    []*comm.Decomp
	layouts    [][]*comm.Layout
	work       []krylov.Workspace
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
	coupled, kinds, err := op.Layout(cfg.Levels, cfg.FineKind, cfg.Precision)
	if err != nil {
		return nil, fmt.Errorf("stokes: %w", err)
	}
	prob.Workers = cfg.Workers
	s := &Solver{Cfg: cfg, Prob: prob}
	s.Tel = cfg.Telemetry
	if s.Tel == nil {
		// Private registry: probes stay live even with telemetry "off".
		s.Tel = telemetry.New().Root()
	}
	stop := s.stage("coupling")
	s.C = fem.NewCoupling(prob)
	stop()
	stop = s.stage("pressure_mass")
	s.Mp = fem.NewPressureMass(prob)
	stop()

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
	s.Op = NewOp(prob, auu, s.C)

	// Viscous-block preconditioner.
	var innerU krylov.Preconditioner
	if cfg.Levels <= 1 {
		if a := auu.CSR(); a != nil {
			s.amgA = a
		} else {
			stop := s.stage("amg_matrix")
			s.amgVA = fem.NewViscousAssembly(prob)
			s.amgVA.Refresh()
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
		// The hierarchy's level 0 is the coupled operator, built once,
		// wherever the layout gives both the same kind; a reduced-precision
		// hierarchy builds its own, so outer residuals are untouched by the
		// preconditioner's precision.
		var fineOp op.Operator
		if kinds[0] == coupled {
			fineOp = auu
		}
		gmg, err := mg.Build(probs, mg.Options{
			Kinds:       kinds,
			SmoothSteps: cfg.SmoothSteps,
			Workers:     cfg.Workers,
			FineOp:      fineOp,
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
	outer := s.Tel.Child("outer")
	s.MatMult = NewOpProbe(s.Op, outer.Timer("matmult"))
	s.PCApply = NewPCProbe(s.FS, outer.Timer("pcapply"))
	if s.Cfg.Params.Telemetry == nil {
		s.Cfg.Params.Telemetry = s.Tel.Child("krylov")
	}
	s.SetupTime = time.Since(start)
	outer.Gauge("setup_seconds").Set(s.SetupTime.Seconds())
	return s, nil
}

// stage starts one stage of New or Refresh on the "outer" scope's timer
// setup_<name> and returns what ends it: together the stage timers say
// where setup_seconds went.
// Stages are coupling, pressure_mass, geometry (coarse coordinates
// re-injected after a mesh move), coarsen (coarse meshes at New, coarse
// coefficients), fine_op (the coupled matvec's operator where the
// hierarchy does not refresh it as its level 0), per hierarchy level
// op_l<i>_<kind> / diag_l<i> / eig_l<i> (mg.SetupTimes), coarse_solver,
// and amg_matrix / amg for the standalone algebraic configurations.
func (s *Solver) stage(name string) (stop func()) {
	t := s.Tel.Child("outer").Timer("setup_" + name)
	start := t.Start()
	return func() { t.Stop(start) }
}

// observeLevels records what the hierarchy's Build or Refresh just spent
// per level as stages.
func (s *Solver) observeLevels() {
	outer := s.Tel.Child("outer")
	for l, lev := range s.MG.Levels {
		outer.Timer(fmt.Sprintf("setup_op_l%d_%v", l, lev.Op.Kind())).Observe(lev.Setup.Op)
		outer.Timer(fmt.Sprintf("setup_diag_l%d", l)).Observe(lev.Setup.Diag)
		outer.Timer(fmt.Sprintf("setup_eig_l%d", l)).Observe(lev.Setup.Eig)
	}
}

// The coarse solvers' one configuration: "bjacobi" block count, "asmcg"
// subdomain count and overlap (§V-A).
const (
	coarseBlocks  = 8
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
	case "lu", "bjacobi":
		nb := 1
		if cfg.CoarseSolver == "bjacobi" {
			nb = coarseBlocks
		}
		bj, err := krylov.NewBlockJacobi(a, nb)
		if err != nil {
			return err
		}
		coarse = bj
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
	s.CoarseApply = NewPCProbe(coarse, s.Tel.Child("outer").Timer("coarse"))
	s.MG.CoarseSolve = s.CoarseApply
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
// current coefficients — and, when geomChanged, coordinates — without
// rebuilding any topology: coarse-level coefficients are re-restricted
// through the configured coarsener, assembled/Galerkin/resident operator
// values are recomputed in place into their cached sparsity, smoother
// spectra are re-estimated exactly as a cold build would, and the
// value-dependent algebraic components are rebuilt (GAMG/LU coarse
// solvers) or refactored on their kept topology (ASM) from the refreshed
// coarse matrices. The result is bit-identical
// to constructing a new Solver on the same state; only the setup cost
// changes. geomChanged must be true whenever the fine mesh coordinates
// moved since the last Setup/Refresh (ALE remeshing).
func (s *Solver) Refresh(geomChanged bool) error {
	start := time.Now()
	if geomChanged {
		s.refreshGeometry()
	}
	// Re-restrict the coarse coefficients in CoarsenProblems level order.
	if s.MG != nil && s.Cfg.CoeffCoarsen != nil {
		stop := s.stage("coarsen")
		for l := 1; l < len(s.MG.Levels); l++ {
			s.Cfg.CoeffCoarsen(l, s.MG.Levels[l].Prob)
		}
		stop()
	}
	// The pressure mass matrix is viscosity-scaled: always re-derive.
	stop := s.stage("pressure_mass")
	s.Mp.Setup()
	stop()
	if s.MG == nil || any(s.MG.Levels[0].Op) != any(s.Op.Auu) {
		// The coupled matvec's operator is not the hierarchy's level 0
		// (there is no hierarchy, or a reduced-precision one built its
		// own float32 fine operator): it refreshes separately.
		stop := s.stage("fine_op")
		err := op.Refresh(s.Op.Auu)
		stop()
		if err != nil {
			return fmt.Errorf("stokes: fine operator refresh: %w", err)
		}
	}
	if s.MG != nil {
		if err := s.MG.Refresh(); err != nil {
			return fmt.Errorf("stokes: %w", err)
		}
		s.observeLevels()
		if err := s.buildCoarseSolver(); err != nil {
			return err
		}
	} else {
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

// refreshGeometry re-derives what depends on the mesh coordinates alone
// after they moved: the coarse levels' injected coordinates and boundary
// values, and the coupling blocks.
func (s *Solver) refreshGeometry() {
	if s.MG != nil {
		stop := s.stage("geometry")
		for l := 1; l < len(s.MG.Levels); l++ {
			fp, cp := s.MG.Levels[l-1].Prob, s.MG.Levels[l].Prob
			mesh.RefreshCoarsenCoords(fp.DA, cp.DA)
			mesh.RefreshCoarsenBCVals(fp.DA, cp.DA, fp.BC, cp.BC)
		}
		stop()
	}
	defer s.stage("coupling")()
	s.C.Setup()
}

// Solve performs one linear Stokes solve in residual-correction form: the
// state x = [u;p] (with boundary values applied to u) is improved so that
// J·x ≈ [bu;0] to the configured tolerance of the *unpreconditioned*
// residual. A non-nil monitor collects the Figure-2 residual histories.
func (s *Solver) Solve(x, bu la.Vec, mon *Monitor) krylov.Result {
	n := s.Op.N()
	f := la.NewVec(n)
	s.Op.Residual(x, bu, f)
	f.Scale(-1)
	delta := la.NewVec(n)
	var cb func(it int, r la.Vec)
	if mon != nil {
		cb = func(it int, r la.Vec) {
			uN, vN, pN := s.Op.FieldNorms(r, s.Cfg.VerticalAxis)
			mon.Iter = append(mon.Iter, it)
			mon.Momentum = append(mon.Momentum, uN)
			mon.Vertical = append(mon.Vertical, vN)
			mon.Pressure = append(mon.Pressure, pN)
		}
	}
	prm := s.Cfg.Params
	prm.Work = &s.Work
	run := func(method string) krylov.Result {
		if method == "gcr" && cb != nil {
			// Only GCR carries an explicit residual to monitor.
			return krylov.GCR(s.MatMult, s.PCApply, f, delta, prm, cb)
		}
		return krylov.Solve(method, s.MatMult, s.PCApply, f, delta, prm)
	}
	res := run(s.Cfg.OuterMethod)
	if res.Err != nil {
		// Breakdown recovery: discard the poisoned correction and rerun
		// once with the alternate outer method. The field-split
		// preconditioner is nonlinear, so both GCR and FGMRES are legal;
		// they fail differently (explicit residual vs. Arnoldi recurrence),
		// which is exactly what makes the switch worth trying.
		outer := s.Tel.Child("outer")
		outer.Counter("breakdown_recoveries").Inc()
		alt := "fgmres"
		if s.Cfg.OuterMethod == "fgmres" {
			alt = "gcr"
		}
		prevIts := res.Iterations
		delta.Zero()
		res = run(alt)
		res.Iterations += prevIts
		if res.Err == nil {
			outer.Counter("breakdowns_recovered").Inc()
		}
	}
	x.AXPY(1, delta)
	return res
}
