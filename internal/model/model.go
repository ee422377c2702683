// Package model is the top-level pTatin3D driver (paper §II and §V): it
// couples the material-point method, the rheology table, the nonlinear
// heterogeneous Stokes solver, the SUPG energy equation, and the ALE free
// surface into a time-stepping loop, and provides the paper's two model
// problems — the sinker/sedimentation benchmark (§IV-A) and the
// continental rifting model (§V).
package model

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/nonlinear"
	"ptatin3d/internal/par"
	"ptatin3d/internal/rheology"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
	"ptatin3d/internal/thermal"
)

// Model holds the full simulation state.
type Model struct {
	Prob   *fem.Problem
	Points *mpm.Points
	Lith   rheology.Table

	// X is the current coupled state [u; p].
	X la.Vec
	// T is the vertex-grid temperature (nil disables the energy equation).
	T    *thermal.Solver
	Temp []float64
	// Stokes solver configuration; the preconditioner is rebuilt on each
	// nonlinear relinearization with the current Picard coefficients.
	Cfg stokes.Config
	// LastStokes is the most recent preconditioner built by SolveStokes;
	// drivers inspect it after a solve for the hierarchy it ran.
	LastStokes *stokes.Solver
	// Backend executes the inner linear solves of the nonlinear Stokes
	// iteration: SharedBackend (what scenario.Compile installs) in this
	// process, a DistributedBackend collectively over the simulated rank
	// world, making the whole MPM→rheology→Stokes→thermal→ALE step
	// rank-distributed. It must be set.
	Backend StokesBackend

	// VerticalAxis is the gravity direction index (sinker: 2, rift: 1).
	VerticalAxis int
	// FreeSurface enables the column-wise ALE update of the max face of
	// VerticalAxis after each step.
	FreeSurface bool
	// CFL controls the advection time step (fraction of min cell crossing
	// time).
	CFL float64
	// MaxDt bounds the time step (0 = unbounded).
	MaxDt float64
	// UseNewton applies the true Newton linearization in the Krylov
	// matvec (paper §III-A); the preconditioner always uses Picard.
	UseNewton bool
	// MinPointsPerElement enables material-point population control:
	// after advection, elements holding fewer points are re-seeded from
	// their neighbourhood (0 disables). Long runs with outflow boundaries
	// or strong shear need this to keep the Eq. 12 projection healthy.
	MinPointsPerElement int
	// Nonlinear controls the outer Newton/Picard iteration.
	Nonlinear nonlinear.Options

	// Telemetry, when non-nil, receives per-step instrumentation: a "step"
	// timer, "steps" counter, material-point accounting counters
	// (points_advected / points_removed / points_relocated), a "points"
	// gauge, and a "stokes" child scope threaded into each solver rebuild.
	Telemetry *telemetry.Scope

	Time    float64
	StepNum int
	Workers int

	// Per-step diagnostics (Figure 4 data).
	Stats []StepStats

	// Cached vertex coefficient fields (projection fallbacks).
	etaV, rhoV []float64

	// stokesCtx keeps the configured Stokes solver stack alive across
	// relinearizations and time steps; Prepare refreshes coefficients in
	// place instead of rebuilding topology (paper §III-A: relinearization
	// changes the coefficients, never the discretization). ALE mesh
	// motion is announced through InvalidateGeometry.
	stokesCtx stokes.Context
	// projector caches the point→vertex incidence of the Eq. 12
	// projection between the η and ρ passes of one relinearization and
	// across relinearizations within a step (points only move in the
	// advection stage).
	projector *mpm.Projector
	// stage accumulates per-stage wall time for the step in flight;
	// StepForward resets it and publishes the totals.
	stage stageTimes
	// scratch is what UpdateCoefficients and SolveStokes would otherwise
	// allocate on every call; slices grow on demand and keep their size.
	scratch struct {
		etaP, rhoP, facP []float64 // per material point
		facQP, d6        []float64 // per quadrature point (Newton)
		bu, coeffX       la.Vec
	}
}

// grown returns s resized to n, reallocating only when it is too small.
func grown(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// stageTimes breaks one time step's wall clock into pipeline stages.
type stageTimes struct {
	rheology, project, stokesSetup, stokesKrylov time.Duration
	advect, ale, thermal                         time.Duration
	setupReused                                  int64
}

// StepStats records one time step's solver behaviour — the per-step
// Newton/Krylov counts of Figure 4.
type StepStats struct {
	Step      int
	Time      float64
	Dt        float64
	NewtonIts int
	KrylovIts int
	// KrylovBasis is the largest Krylov basis, in n-vectors, that any of
	// the step's inner solves allocated.
	KrylovBasis int
	FNorm0      float64
	FNorm       float64
	Converged   bool
	// ResidualEvals counts the step's nonlinear residual evaluations
	// (the initial one plus every line-search trial);
	// LineSearchStagnated says the iteration ended because a search
	// found no step length that reduces ‖F‖.
	ResidualEvals       int
	LineSearchStagnated bool
	SolveTime           time.Duration
	PointCount          int
	TopoMin             float64
	TopoMax             float64
	// Backend records which Stokes backend ran the step's inner solves;
	// Ranks and the communication totals are zero on the shared path.
	Backend    string
	Ranks      int
	HaloMsgs   int64
	HaloBytes  int64
	AllReduces int64
	// Retries counts the reliable exchange's retransmission rounds, over
	// all ranks: zero on a run without an injected fault.
	Retries int64
	// Per-stage wall times of the step pipeline (the -json breakdown).
	RheologyTime     time.Duration
	ProjectTime      time.Duration
	StokesSetupTime  time.Duration
	StokesKrylovTime time.Duration
	AdvectTime       time.Duration
	ALETime          time.Duration
	ThermalTime      time.Duration
	// StokesSetupReused counts the step's relinearizations served by
	// refreshing the cached solver stack instead of a cold build.
	StokesSetupReused int64
	// CPUUtil is the share of Workers cores that ran user Go code during
	// the step (telemetry.CPUSample.Utilization): a value well under 1
	// means serial sections or idle workers (Workers × Ranks cores on the
	// distributed backend). The runtime's CPU accounting
	// advances at garbage-collection cycles, so the window is the step to
	// within one cycle at either end, and 0 when no cycle ended inside it.
	CPUUtil float64
	// HelperShare is the share of the step's parallel-region items (par.For
	// chunks, par.Phased items) that pool workers ran rather than the
	// goroutine that opened the region: 0 when the callers did everything
	// themselves, (w-1)/w when w workers split the work evenly — the
	// direct reading of whether the extra workers got any of it, which
	// CPUUtil is not (a caller working alone keeps it near 1/Workers, a
	// worker waiting inside a job raises it). Process-wide, like CPUUtil;
	// 0 at one worker, where no region is parallel.
	HelperShare float64
}

// pointState evaluates the rheological state of material point i for the
// coupled state whose velocity and temperature c gathers and whose
// pressure is pv.
func (m *Model) pointState(c *fem.ElemCursor, pv la.Vec, i int) rheology.State {
	pts := m.Points
	st := rheology.State{PlasticStrain: pts.Plastic[i]}
	if pts.Elem[i] < 0 {
		return st
	}
	c.Seek(int(pts.Elem[i]))
	st.StrainRateII = fem.StrainRateAtPoint(c, pts.Xi[i], pts.Et[i], pts.Ze[i])
	st.Pressure = fem.EvalPressure(c, pv, pts.X[i], pts.Y[i], pts.Z[i])
	if m.Temp != nil {
		st.Temperature = thermal.TemperatureAt(c, pts.Xi[i], pts.Et[i], pts.Ze[i])
	}
	return st
}

// stateCursor returns the cursor and pressure block pointState reads the
// coupled state x through.
func (m *Model) stateCursor(x la.Vec) (fem.ElemCursor, la.Vec) {
	nu := m.Prob.DA.NVelDOF()
	return m.Prob.Cursor(x[:nu], m.Temp), x[nu:]
}

// UpdateCoefficients evaluates η and ρ at every material point for the
// state x, projects them onto the vertex grid (Eq. 12) and installs them
// at the quadrature points (Eq. 13). With wantDeriv it additionally
// returns the projected Newton factor η′/ε̇_II at quadrature points, in
// model-owned storage that the next such call overwrites.
func (m *Model) UpdateCoefficients(x la.Vec, wantDeriv bool) (facQP []float64) {
	pts := m.Points
	n := pts.Len()
	sc := &m.scratch
	sc.etaP, sc.rhoP = grown(sc.etaP, n), grown(sc.rhoP, n)
	etaP, rhoP := sc.etaP, sc.rhoP
	var facP []float64
	if wantDeriv {
		sc.facP = grown(sc.facP, n)
		facP = sc.facP
	}
	m.Telemetry.Counter("coeff_updates").Inc()
	// Per-point rheology evaluation: each point reads the shared state
	// (x, coordinates, temperature) and writes only its own slots, so the
	// loop parallelizes with no change in any point's arithmetic.
	t0 := time.Now()
	cur, pv := m.stateCursor(x)
	par.For(max(1, m.Workers), n, func(lo, hi int) {
		c := cur
		defer c.Done()
		for i := lo; i < hi; i++ {
			st := m.pointState(&c, pv, i)
			l := &m.Lith[pts.Litho[i]]
			if wantDeriv {
				eta, d := l.EffectiveViscosityDerivative(st)
				etaP[i] = eta
				eII := st.StrainRateII
				if eII < 1e-12 {
					eII = 1e-12
				}
				// Tangent safeguard: along the current strain-rate direction
				// the Newton operator's modulus is 2(η + η′·ε̇); on the
				// Drucker–Prager branch η′ = −η/ε̇ makes it exactly zero
				// (perfect plasticity), and projection smearing can push it
				// negative — an indefinite Krylov operator that the Picard
				// preconditioner cannot handle. Keep 10% of the Picard
				// stiffness: η′ ≥ −0.9·η/ε̇.
				if lo := -0.9 * eta / eII; d < lo {
					d = lo
				}
				facP[i] = d / eII
			} else {
				etaP[i], _ = l.EffectiveViscosity(st)
			}
			rhoP[i] = l.Density(st)
		}
	})
	m.stage.rheology += time.Since(t0)
	t1 := time.Now()
	if m.projector == nil {
		m.projector = mpm.NewProjector(m.Prob)
	}
	m.etaV, m.rhoV = m.projector.ProjectLithologyFields(pts,
		func(i int) float64 { return etaP[i] },
		func(i int) float64 { return rhoP[i] },
		m.etaV, m.rhoV)
	if wantDeriv {
		facV := m.projector.Project(pts, func(i int) float64 { return facP[i] }, nil)
		sc.facQP = grown(sc.facQP, fem.NQP*m.Prob.DA.NElements())
		facQP = sc.facQP
		fem.VertexToQP(m.Prob, facV, facQP)
	}
	m.stage.project += time.Since(t1)
	return facQP
}

// CoeffCoarsener wires the projected vertex fields into the multigrid
// coefficient hierarchy (full-weighted restriction per level).
func (m *Model) CoeffCoarsener() func(level int, p *fem.Problem) {
	return mg.VertexCoeffCoarsener(m.Prob.DA, m.etaV, m.rhoV)
}

// StokesConfig is the solver configuration of the model as it stands: Cfg
// at the run's width and vertical axis, coarsening the coefficients the
// last UpdateCoefficients projected, recording under the model's scope
// unless Cfg names one. SolveStokes hands it to the cached solver context
// on every relinearisation.
func (m *Model) StokesConfig() stokes.Config {
	cfg := m.Cfg
	cfg.Workers = m.Workers
	cfg.VerticalAxis = m.VerticalAxis
	cfg.CoeffCoarsen = m.CoeffCoarsener()
	if cfg.Telemetry == nil {
		cfg.Telemetry = m.Telemetry.Child("stokes")
	}
	return cfg
}

// LinearStokes builds, cold, the Stokes solver and the momentum load
// vector for the coefficients the model holds — after scenario.Compile,
// those of the zero state, i.e. the system the first Picard iteration of
// the first step solves. edit, when non-nil, adjusts the configuration
// before the build: the paper's tables vary the representation, the
// hierarchy and the iteration budget of exactly this solve.
func (m *Model) LinearStokes(edit func(*stokes.Config)) (*stokes.Solver, la.Vec, error) {
	cfg := m.StokesConfig()
	if edit != nil {
		edit(&cfg)
	}
	s, err := stokes.New(m.Prob, cfg)
	if err != nil {
		return nil, nil, err
	}
	bu := la.NewVec(m.Prob.DA.NVelDOF())
	fem.MomentumRHS(m.Prob, bu)
	return s, bu, nil
}

// SolveStokes performs the nonlinear Stokes solve for the current
// material configuration, updating m.X. It returns the nonlinear result.
// Following §III-A, each relinearization rebuilds the Picard
// preconditioner; the Krylov operator is the Newton linearization when
// UseNewton is set, else the Picard operator.
func (m *Model) SolveStokes() (nonlinear.Result, error) {
	prob := m.Prob
	nu := prob.DA.NVelDOF()
	ncoup := nu + prob.DA.NPresDOF()
	if len(m.X) != ncoup {
		m.X = la.NewVec(ncoup)
	}
	prob.BC.ApplyToVec(m.X[:nu])

	// The gradient/divergence blocks depend on geometry only: the cached
	// solver stack's own, brought up to the mesh as it is now.
	t0 := time.Now()
	coupling := m.stokesCtx.Coupling(prob)
	m.stage.stokesSetup += time.Since(t0)
	resOp := stokes.NewOp(prob, fem.NewTensor(prob), coupling)
	sc := &m.scratch
	sc.bu, sc.coeffX = grown(sc.bu, nu), grown(sc.coeffX, ncoup)
	bu := sc.bu

	// coeffX is the state the installed Picard coefficients were last
	// evaluated at, once coeffValid, during this solve (points,
	// temperature and mesh do not change inside it). The nonlinear loop
	// relinearises at the state its last residual evaluation accepted, so
	// Prepare usually finds the coefficients already there; comparing the
	// states, not trusting the call order, is what decides.
	coeffX, coeffValid := sc.coeffX, false
	updateCoefficients := func(x la.Vec, wantDeriv bool) []float64 {
		if !wantDeriv && coeffValid && slices.Equal(coeffX, x) {
			return nil
		}
		facQP := m.UpdateCoefficients(x, wantDeriv)
		coeffX.Copy(x)
		coeffValid = true
		return facQP
	}

	// prepared is the solver stack of the current relinearization; the
	// backend hook below needs it (the serial path reaches it through
	// the returned jop/pc instead).
	var prepared *stokes.Solver
	sys := nonlinear.System{
		N: ncoup,
		Residual: func(x, f la.Vec) {
			updateCoefficients(x, false)
			fem.MomentumRHS(prob, bu)
			resOp.Residual(x, bu, f)
		},
		Prepare: func(x la.Vec) (krylov.Op, krylov.Preconditioner, error) {
			facQP := updateCoefficients(x, m.UseNewton)
			t0 := time.Now()
			s, reused, err := m.stokesCtx.Prepare(prob, m.StokesConfig())
			m.stage.stokesSetup += time.Since(t0)
			if err != nil {
				return nil, nil, fmt.Errorf("preconditioner setup: %w", err)
			}
			if reused {
				m.stage.setupReused++
				if tel := m.Telemetry; tel != nil {
					tel.Counter("stokes_setup_reused").Inc()
				}
			}
			m.LastStokes = s
			prepared = s
			if m.UseNewton {
				sc.d6 = grown(sc.d6, 6*fem.NQP*prob.DA.NElements())
				fem.StrainRateAtQP(prob, x[:nu], sc.d6, nil)
				nop := fem.NewNewton(fem.NewTensor(prob), sc.d6, facQP)
				return stokes.NewOp(prob, nop, coupling), s.FS, nil
			}
			return s.Op, s.FS, nil
		},
		Method:      "fgmres",
		InnerParams: m.Cfg.Params,
	}
	sys.Inner = func(method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
		t0 := time.Now()
		r := m.Backend.LinearSolve(prepared, method, jop, pc, rhs, delta, prm)
		m.stage.stokesKrylov += time.Since(t0)
		return r
	}
	res := nonlinear.Solve(sys, m.X, m.Nonlinear)
	if tel := m.Telemetry; tel != nil {
		tel.Counter("solver_breakdowns").Add(int64(res.Breakdowns))
		tel.Counter("solver_fallbacks").Add(int64(res.Fallbacks))
	}
	if res.Err != nil {
		return res, fmt.Errorf("model: stokes solve: %w", res.Err)
	}
	return res, nil
}

// minCellSize returns the smallest element edge proxy (corner spacing).
func (m *Model) minCellSize() float64 {
	da := m.Prob.DA
	min := math.Inf(1)
	// Sample the structured spacing from the first node row/column/slab of
	// each direction; for deformed meshes this is a usable proxy.
	for _, d := range [3]struct {
		n1, n2 int
	}{
		{da.NodeID(0, 0, 0), da.NodeID(2, 0, 0)},
		{da.NodeID(0, 0, 0), da.NodeID(0, 2, 0)},
		{da.NodeID(0, 0, 0), da.NodeID(0, 0, 2)},
	} {
		dx := da.Coords[3*d.n2] - da.Coords[3*d.n1]
		dy := da.Coords[3*d.n2+1] - da.Coords[3*d.n1+1]
		dz := da.Coords[3*d.n2+2] - da.Coords[3*d.n1+2]
		h := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if h > 0 && h < min {
			min = h
		}
	}
	return min
}

// StepForward advances the model by one time step: nonlinear Stokes solve
// → CFL time step → plastic strain accumulation → material point
// advection (+ outflow removal) → ALE free surface update → energy
// equation. It appends a StepStats record.
func (m *Model) StepForward() error {
	start := time.Now()
	cpuStart := telemetry.ReadCPU()
	items0, pooled0 := par.Counts()
	stepStart := m.Telemetry.Timer("step").Start()
	m.stage = stageTimes{}
	res, err := m.SolveStokes()
	if err != nil {
		return err
	}
	nu := m.Prob.DA.NVelDOF()
	u := m.X[:nu]

	// Time step from the CFL condition.
	cfl := m.CFL
	if cfl <= 0 {
		cfl = 0.25
	}
	vmax := mpm.MaxVelocity(u)
	dt := math.Inf(1)
	if vmax > 0 {
		dt = cfl * m.minCellSize() / vmax
	}
	if m.MaxDt > 0 && dt > m.MaxDt {
		dt = m.MaxDt
	}
	if math.IsInf(dt, 1) {
		dt = m.MaxDt
		if dt <= 0 {
			dt = 1
		}
	}

	// Accumulate plastic strain on yielding points (history variable
	// update of §V-A) using the converged state. Each point writes only
	// its own slot, so the loop runs on the worker pool. A lithology
	// without Plastic has an infinite yield viscosity and never yields.
	tPlastic := time.Now()
	cur, pv := m.stateCursor(m.X)
	par.For(max(1, m.Workers), m.Points.Len(), func(lo, hi int) {
		c := cur
		defer c.Done()
		for i := lo; i < hi; i++ {
			l := &m.Lith[m.Points.Litho[i]]
			if !l.Plastic {
				continue
			}
			st := m.pointState(&c, pv, i)
			if _, yielding := l.EffectiveViscosity(st); yielding {
				m.Points.Plastic[i] += dt * st.StrainRateII
			}
		}
	})
	m.stage.rheology += time.Since(tPlastic)

	// Advect material points; outflow points are removed (§II-D).
	tAdvect := time.Now()
	advected := m.Points.Len()
	removed := 0
	mpm.AdvectRK2(m.Prob, u, dt, m.Points, max(1, m.Workers))
	for i := m.Points.Len() - 1; i >= 0; i-- {
		if m.Points.Elem[i] < 0 {
			m.Points.RemoveSwap(i)
			removed++
		}
	}
	if m.MinPointsPerElement > 0 {
		nper := 2
		mpm.EnsureMinPerElement(m.Prob, m.Points, m.MinPointsPerElement, nper)
	}
	if m.projector != nil {
		m.projector.Invalidate()
	}
	m.stage.advect += time.Since(tAdvect)

	// ALE free surface update; every point must be relocated afterwards
	// because the mesh under it moved. Relocation is two-phase: the
	// location walks run on the worker pool (each point touches only its
	// own slots), then the lost points are removed by a serial descending
	// sweep — the exact removal sequence of the original per-point loop.
	var topoMin, topoMax float64
	relocated := 0
	if m.FreeSurface {
		tALE := time.Now()
		meshUpdateFreeSurface(m, u, dt)
		lost := mpm.LocateAll(m.Prob, m.Points)
		relocated = m.Points.Len() - len(lost)
		for k := len(lost) - 1; k >= 0; k-- {
			m.Points.RemoveSwap(lost[k])
			removed++
		}
		if m.projector != nil {
			m.projector.Invalidate()
		}
		m.stokesCtx.InvalidateGeometry()
		m.stage.ale += time.Since(tALE)
	}
	topoMin, topoMax = surfaceRange(m)

	// Energy equation.
	if m.T != nil && m.Temp != nil {
		tThermal := time.Now()
		if err := m.T.Step(m.Temp, u, dt); err != nil {
			return fmt.Errorf("model: thermal step: %w", err)
		}
		m.stage.thermal += time.Since(tThermal)
	}

	if tel := m.Telemetry; tel != nil {
		tel.Timer("step").Stop(stepStart)
		tel.Counter("steps").Inc()
		tel.Counter("points_advected").Add(int64(advected))
		tel.Counter("points_removed").Add(int64(removed))
		tel.Counter("points_relocated").Add(int64(relocated))
		tel.Gauge("points").Set(float64(m.Points.Len()))
		tel.Counter("krylov_its").Add(int64(res.KrylovIts))
		tel.Counter("newton_its").Add(int64(res.Iterations))
		for i, n := range m.Prob.TakePointStats() {
			tel.Child("mpm").Counter(fem.PointStatNames[i]).Add(n)
		}
		stage := tel.Child("step")
		stage.Timer("rheology").Observe(m.stage.rheology)
		stage.Timer("mpm_project").Observe(m.stage.project)
		stage.Timer("stokes_setup").Observe(m.stage.stokesSetup)
		stage.Timer("stokes_krylov").Observe(m.stage.stokesKrylov)
		stage.Timer("advect").Observe(m.stage.advect)
		stage.Timer("ale").Observe(m.stage.ale)
		stage.Timer("thermal").Observe(m.stage.thermal)
	}

	m.Time += dt
	m.StepNum++
	st := StepStats{
		Step: m.StepNum, Time: m.Time, Dt: dt,
		NewtonIts: res.Iterations, KrylovIts: res.KrylovIts, KrylovBasis: res.KrylovBasis,
		FNorm0: res.FNorm0, FNorm: res.FNorm, Converged: res.Converged,
		ResidualEvals: res.ResidualEvals, LineSearchStagnated: res.Stagnated,
		SolveTime:  time.Since(start),
		PointCount: m.Points.Len(),
		TopoMin:    topoMin, TopoMax: topoMax,
		Backend:           m.Backend.Name(),
		RheologyTime:      m.stage.rheology,
		ProjectTime:       m.stage.project,
		StokesSetupTime:   m.stage.stokesSetup,
		StokesKrylovTime:  m.stage.stokesKrylov,
		AdvectTime:        m.stage.advect,
		ALETime:           m.stage.ale,
		ThermalTime:       m.stage.thermal,
		StokesSetupReused: m.stage.setupReused,
	}
	if rep, ok := m.Backend.(CommStatsReporter); ok {
		ranks := rep.TakeCommStats()
		st.Ranks = len(ranks)
		for _, r := range ranks {
			st.HaloMsgs += r.HaloMsgs
			st.HaloBytes += r.HaloBytes
			st.AllReduces += r.AllReduces
			st.Retries += r.Retries
		}
		if tel := m.Telemetry; tel != nil {
			tel.Counter("halo_msgs").Add(st.HaloMsgs)
			tel.Counter("halo_bytes").Add(st.HaloBytes)
			tel.Counter("allreduces").Add(st.AllReduces)
			tel.Counter("retries").Add(st.Retries)
		}
	}
	// Simulated ranks are goroutines of this process, Workers wide each.
	st.CPUUtil = telemetry.ReadCPU().Utilization(cpuStart, max(1, m.Workers)*max(1, st.Ranks))
	st.HelperShare = par.HelperShare(items0, pooled0)
	m.Stats = append(m.Stats, st)
	return nil
}
