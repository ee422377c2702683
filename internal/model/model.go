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
	"ptatin3d/internal/mesh"
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

	// Telemetry, when non-nil, is the scope whose "stokes" child the
	// solver stack records under (StokesConfig). The step's own numbers
	// are its StepStats record.
	Telemetry *telemetry.Scope

	Time    float64
	StepNum int
	// Workers is the width of one rank: the pool workers of the process
	// on the shared backend, of each simulated rank on the distributed
	// one. A step runs everything outside the ranks' solve Workers × ranks
	// wide (StepForward).
	Workers int
	// width is the step's pool width, Workers × the backend's world size,
	// which StepForward sets before its first stage; every stage reads it
	// through workers(). Zero until the first step.
	width int

	// Per-step diagnostics (Figure 4 data).
	Stats []StepStats

	// Cached vertex coefficient fields (projection fallbacks).
	etaV, rhoV []float64

	// stokesCtx keeps the configured Stokes solver stack alive across
	// relinearizations and time steps; Prepare refreshes coefficients in
	// place instead of rebuilding topology (paper §III-A: relinearization
	// changes the coefficients, never the discretization). A mesh move
	// (ALE, Restore) is read from the coordinates; nothing announces it.
	stokesCtx stokes.Context
	// projector caches the point→vertex incidence and weights of the
	// Eq. 12 projection between the η and ρ passes of one relinearization
	// and across relinearizations within a step (points only move in the
	// advection and ALE stages, and Restore replaces them).
	projector *mpm.Projector
	// rec is the record of the step in flight: the stages add their wall
	// seconds and counts to it as they run, and StepForward appends it to
	// Stats.
	rec StepStats
	// scratch is what UpdateCoefficients and SolveStokes would otherwise
	// allocate on every call; slices grow on demand and keep their size.
	scratch struct {
		etaP, rhoP, facP []float64 // per material point
		facQP, d6        []float64 // per quadrature point (Newton)
		bu, coeffX       la.Vec
		// jinvP holds 9 floats per material point: its inverse Jacobian
		// (fem.PointJacobianInverse), filled by the first coefficient
		// update of a solve and read by the later ones and by the plastic
		// pass after it (points and mesh do not move in between). Nil
		// while no lithology reads the strain rate.
		jinvP []float64
		// nl lends the nonlinear iteration its n-vectors.
		nl nonlinear.Workspace
	}
}

// stepWidth is the pool width of a process that runs ranks simulated
// ranks of workers workers each: the cores a step has for what it does
// outside the ranks' solve.
func stepWidth(workers, ranks int) int {
	return max(1, workers) * max(1, ranks)
}

// workers returns the width the stages run at: the last step's, or
// Workers before the first step.
func (m *Model) workers() int {
	if m.width > 0 {
		return m.width
	}
	return stepWidth(m.Workers, 1)
}

// grown returns s resized to n, reallocating only when it is too small.
func grown(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// StepStats records one time step's solver behaviour — the per-step
// Newton/Krylov counts of Figure 4 — and where its wall time went: the
// step record that ptatin-run -json writes, under the json keys below.
type StepStats struct {
	Step      int     `json:"step"`
	Time      float64 `json:"time"`
	Dt        float64 `json:"dt"`
	NewtonIts int     `json:"newton_its"`
	KrylovIts int     `json:"krylov_its"`
	// KrylovBasis is the largest Krylov basis, in vectors (packed on its
	// windows on a rank), that any of the step's inner solves allocated.
	KrylovBasis int     `json:"krylov_basis"`
	FNorm0      float64 `json:"fnorm0"`
	FNorm       float64 `json:"fnorm"`
	Converged   bool    `json:"converged"`
	// ResidualEvals counts the step's nonlinear residual evaluations
	// (the initial one plus every line-search trial);
	// LineSearchStagnated says the iteration ended because a search
	// found no step length that reduces ‖F‖.
	ResidualEvals       int  `json:"residual_evals"`
	LineSearchStagnated bool `json:"line_search_stagnated"`
	// KrylovBreakdowns counts the step's inner solves that broke down
	// (nonlinear.Result.Breakdowns); KrylovFallbacks those of them that
	// the alternate Krylov method then solved. A step that returns has
	// recovered from every one, so the two are equal in a record.
	KrylovBreakdowns int `json:"krylov_breakdowns"`
	KrylovFallbacks  int `json:"krylov_fallbacks"`
	// WallS is the whole step's wall time in seconds.
	WallS      float64 `json:"wall_s"`
	PointCount int     `json:"points"`
	// Points the step deleted (outside the domain after advection or the
	// ALE update) and population control seeded; the fewest and the most
	// points an element holds at the end of the step.
	PointsRemoved  int     `json:"points_removed"`
	PointsInjected int     `json:"points_injected"`
	PPEMin         int     `json:"ppe_min"`
	PPEMax         int     `json:"ppe_max"`
	TopoMin        float64 `json:"topo_min"`
	TopoMax        float64 `json:"topo_max"`
	// Backend records which Stokes backend ran the step's inner solves;
	// Ranks and the communication totals are zero on the shared path.
	Backend    string `json:"backend"`
	Ranks      int    `json:"ranks,omitempty"`
	HaloMsgs   int64  `json:"halo_msgs,omitempty"`
	HaloBytes  int64  `json:"halo_bytes,omitempty"`
	AllReduces int64  `json:"allreduces,omitempty"`
	// Per-stage wall seconds of the step pipeline.
	RheologyS     float64 `json:"rheology_s"`
	MPMProjectS   float64 `json:"mpm_project_s"`
	StokesSetupS  float64 `json:"stokes_setup_s"`
	StokesKrylovS float64 `json:"stokes_krylov_s"`
	AdvectS       float64 `json:"advect_s"`
	ALES          float64 `json:"ale_s"`
	ThermalS      float64 `json:"thermal_s"`
	// StokesSetupReused counts the step's relinearizations served by
	// refreshing the cached solver stack instead of a cold build.
	StokesSetupReused int64 `json:"stokes_setup_reused"`
	// CoeffUpdates counts the step's point-rheology evaluations of η with
	// projection: one per solve when no lithology reads the strain rate or
	// the pressure, else one per distinct state the residual is evaluated
	// at, plus one per Newton relinearisation. ρ is evaluated and projected once per solve, by
	// the first of them.
	CoeffUpdates int64 `json:"coeff_updates"`
	// CPUUtil is the share of the step's cores — Workers × Ranks, the
	// width every stage runs at — that the process kept busy in user mode
	// during the step (telemetry.CPUSample.Utilization): a value well
	// under 1 means serial sections or idle workers. 0 (absent from the
	// record) only where the platform has no CPU-time reading.
	CPUUtil float64 `json:"cpu_util,omitempty"`
	// HelperShare is the share of the step's parallel-region items (par.For
	// chunks, par.Phased items) that pool workers ran rather than the
	// goroutine that opened the region: 0 when the callers did everything
	// themselves, (w-1)/w when w workers split the work evenly — the
	// direct reading of whether the extra workers got any of it, which
	// CPUUtil is not (a caller working alone keeps it near 1/Workers, a
	// worker waiting inside a job raises it). Process-wide, like CPUUtil;
	// 0 at one worker, where no region is parallel.
	HelperShare float64 `json:"helper_share"`
}

// addComm adds the communication totals of the ranks' records.
func (s *StepStats) addComm(ranks []stokes.RankStats) {
	for _, r := range ranks {
		s.HaloMsgs += r.HaloMsgs
		s.HaloBytes += r.HaloBytes
		s.AllReduces += r.AllReduces
	}
}

// pointState evaluates the rheological state of material point i for the
// coupled state whose velocity and temperature c gathers and whose
// pressure is pv — only the fields its lithology's laws read (the others
// stay zero: they cannot change what the laws return). With first it
// computes the point's inverse Jacobian into the solve's store, else it
// reads what the first update of the solve left there.
func (m *Model) pointState(c *fem.ElemCursor, pv la.Vec, i int, first bool) rheology.State {
	pts := m.Points
	st := rheology.State{PlasticStrain: pts.Plastic[i]}
	reads := m.Lith[pts.Litho[i]].Reads()
	reads.Temperature = reads.Temperature && m.Temp != nil
	if pts.Elem[i] < 0 || reads == (rheology.Fields{}) {
		return st
	}
	c.Seek(int(pts.Elem[i]))
	if reads.StrainRate {
		inv := (*[9]float64)(m.scratch.jinvP[9*i:])
		if first {
			fem.PointJacobianInverse(c, pts.Xi[i], pts.Et[i], pts.Ze[i], inv)
		}
		st.StrainRateII = fem.StrainRateAtPoint(c, pts.Xi[i], pts.Et[i], pts.Ze[i], inv)
	}
	if reads.Pressure {
		st.Pressure = fem.EvalPressure(c, pv, pts.X[i], pts.Y[i], pts.Z[i])
	}
	if reads.Temperature {
		st.Temperature = thermal.TemperatureAt(c, pts.Xi[i], pts.Et[i], pts.Ze[i])
	}
	return st
}

// readsState reports whether some lithology's laws read the strain rate
// or the pressure — the fields that change with the Stokes state inside
// one solve. When none does, the coefficients are a function of the
// points, the temperature and the mesh alone.
func (m *Model) readsState() bool {
	for i := range m.Lith {
		if r := m.Lith[i].Reads(); r.StrainRate || r.Pressure {
			return true
		}
	}
	return false
}

// readsStrainRate reports whether some lithology's laws read ε̇_II, the
// one field that needs the points' inverse Jacobians.
func (m *Model) readsStrainRate() bool {
	for i := range m.Lith {
		if m.Lith[i].Reads().StrainRate {
			return true
		}
	}
	return false
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
	return m.updateCoefficients(x, wantDeriv, true)
}

// updateCoefficients is UpdateCoefficients as the updates of one solve
// run it. The first evaluates, projects and installs ρ and computes the
// points' inverse Jacobians; the later ones reuse both — points,
// temperature and mesh do not change inside a solve — so the vertex and
// quadrature-point densities keep what the first left.
func (m *Model) updateCoefficients(x la.Vec, wantDeriv, first bool) (facQP []float64) {
	pts := m.Points
	n := pts.Len()
	sc := &m.scratch
	sc.etaP, sc.rhoP = grown(sc.etaP, n), grown(sc.rhoP, n)
	if first && m.readsStrainRate() {
		sc.jinvP = grown(sc.jinvP, 9*n)
	}
	etaP, rhoP := sc.etaP, sc.rhoP
	var facP []float64
	if wantDeriv {
		sc.facP = grown(sc.facP, n)
		facP = sc.facP
	}
	m.rec.CoeffUpdates++
	// Per-point rheology evaluation: each point reads the shared state
	// (x, coordinates, temperature) and writes only its own slots, so the
	// loop parallelizes with no change in any point's arithmetic.
	t0 := time.Now()
	cur, pv := m.stateCursor(x)
	par.For(m.workers(), n, func(lo, hi int) {
		c := cur
		for i := lo; i < hi; i++ {
			st := m.pointState(&c, pv, i, first)
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
			if first {
				rhoP[i] = l.Density(st)
			}
		}
	})
	m.rec.RheologyS += time.Since(t0).Seconds()
	t1 := time.Now()
	if m.projector == nil {
		m.projector = mpm.NewProjector(m.Prob)
	}
	etaOf := func(i int) float64 { return etaP[i] }
	if first {
		m.etaV, m.rhoV = m.projector.ProjectLithologyFields(pts, etaOf,
			func(i int) float64 { return rhoP[i] }, m.etaV, m.rhoV)
	} else {
		m.etaV = m.projector.Project(pts, etaOf, m.etaV)
		m.Prob.SetCoefficientsVertex(m.etaV, nil)
	}
	if wantDeriv {
		facV := m.projector.Project(pts, func(i int) float64 { return facP[i] }, nil)
		sc.facQP = grown(sc.facQP, fem.NQP*m.Prob.DA.NElements())
		facQP = sc.facQP
		fem.VertexToQP(m.Prob, facV, facQP)
	}
	m.rec.MPMProjectS += time.Since(t1).Seconds()
	return facQP
}

// CoeffCoarsener wires the projected vertex fields into the multigrid
// coefficient hierarchy (full-weighted restriction per level).
func (m *Model) CoeffCoarsener() func(level int, p *fem.Problem) {
	return mg.VertexCoeffCoarsener(m.Prob.DA, m.etaV, m.rhoV)
}

// StokesConfig is the solver configuration of the model as it stands: Cfg
// at the step's width (Workers × ranks: the stack is built and refreshed
// on all the process's cores, and its fingerprint sees the width) and
// vertical axis, coarsening the coefficients the last UpdateCoefficients
// projected, recording under the model's scope unless Cfg names one.
// SolveStokes hands it to the cached solver context on every
// relinearisation.
func (m *Model) StokesConfig() stokes.Config {
	cfg := m.Cfg
	cfg.Workers = m.workers()
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

	// The gradient/divergence blocks depend on geometry only: the
	// problem's one set, brought up to the mesh as it is now, which the
	// solver stack shares. The residual runs NewOp's own tensor kernel, so
	// its Op needs no viscous block.
	t0 := time.Now()
	coupling := prob.Coupling()
	m.rec.StokesSetupS += time.Since(t0).Seconds()
	resOp := stokes.NewOp(prob, nil, coupling)
	sc := &m.scratch
	sc.bu, sc.coeffX = grown(sc.bu, nu), grown(sc.coeffX, ncoup)
	bu := sc.bu

	// coeffX is the state the installed Picard coefficients were last
	// evaluated at, once coeffValid, during this solve (points,
	// temperature and mesh do not change inside it). The nonlinear loop
	// relinearises at the state its last residual evaluation accepted, so
	// Prepare usually finds the coefficients already there; comparing the
	// states, not trusting the call order, is what decides. When no
	// lithology reads the strain rate or the pressure, the coefficients
	// do not depend on the state at all and the first evaluation holds for
	// the whole solve. ρ reads the temperature alone (Lithology.Density),
	// so only the first update evaluates, projects and installs it, and
	// the load vector, which depends on ρ and the mesh only, is built once;
	// the points' inverse Jacobians, which depend on the points and the
	// mesh only, are computed by the first update too.
	coeffX, coeffValid, buValid := sc.coeffX, false, false
	stateFree := !m.readsState()
	updateCoefficients := func(x la.Vec, wantDeriv bool) []float64 {
		if !wantDeriv && coeffValid && (stateFree || slices.Equal(coeffX, x)) {
			return nil
		}
		facQP := m.updateCoefficients(x, wantDeriv, !coeffValid)
		coeffX.Copy(x)
		coeffValid = true
		return facQP
	}

	// prepared is the solver stack of the current relinearization; the
	// backend hook below needs it (the serial path reaches it through
	// the returned jop/pc instead).
	var prepared *stokes.Solver
	sys := nonlinear.System{
		N:    ncoup,
		Work: &sc.nl,
		Residual: func(x, f la.Vec) {
			updateCoefficients(x, false)
			if !buValid {
				fem.MomentumRHS(prob, bu)
				buValid = true
			}
			resOp.Residual(x, bu, f)
		},
		Prepare: func(x la.Vec) (krylov.Op, krylov.Preconditioner, error) {
			facQP := updateCoefficients(x, m.UseNewton)
			t0 := time.Now()
			s, reused, err := m.stokesCtx.Prepare(prob, m.StokesConfig())
			m.rec.StokesSetupS += time.Since(t0).Seconds()
			if err != nil {
				return nil, nil, fmt.Errorf("preconditioner setup: %w", err)
			}
			if reused {
				m.rec.StokesSetupReused++
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
		m.rec.StokesKrylovS += time.Since(t0).Seconds()
		return r
	}
	res := nonlinear.Solve(sys, m.X, m.Nonlinear)
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
	m.rec = StepStats{Backend: m.Backend.Name()}
	rec := &m.rec
	// The world size, read once before the first stage: a distributed
	// backend reports one entry per rank from its construction on. What the
	// step does outside the ranks' solve — set-up, rheology, projection,
	// advection, ALE — then runs on all the world's cores, as every phase
	// of a pTatin3D step runs on all its ranks.
	rep, _ := m.Backend.(CommStatsReporter)
	if rep != nil {
		ranks := rep.TakeCommStats()
		rec.Ranks = len(ranks)
		rec.addComm(ranks)
	}
	m.width = stepWidth(m.Workers, rec.Ranks)
	m.Prob.Workers = m.width
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
	// update of §V-A) using the converged state, on the inverse Jacobians
	// the solve computed. Each point writes only its own slot, so the loop
	// runs on the worker pool. A lithology without Plastic has an infinite
	// yield viscosity and never yields.
	tPlastic := time.Now()
	cur, pv := m.stateCursor(m.X)
	par.For(m.workers(), m.Points.Len(), func(lo, hi int) {
		c := cur
		for i := lo; i < hi; i++ {
			l := &m.Lith[m.Points.Litho[i]]
			if !l.Plastic {
				continue
			}
			st := m.pointState(&c, pv, i, false)
			if _, yielding := l.EffectiveViscosity(st); yielding {
				m.Points.Plastic[i] += dt * st.StrainRateII
			}
		}
	})
	rec.RheologyS += time.Since(tPlastic).Seconds()

	// Advect material points; outflow points are removed (§II-D).
	tAdvect := time.Now()
	mpm.AdvectRK2(m.Prob, u, dt, m.Points, m.workers())
	for i := m.Points.Len() - 1; i >= 0; i-- {
		if m.Points.Elem[i] < 0 {
			m.Points.RemoveSwap(i)
			rec.PointsRemoved++
		}
	}
	if m.MinPointsPerElement > 0 {
		nper := 2
		rec.PointsInjected = mpm.EnsureMinPerElement(m.Prob, m.Points, m.MinPointsPerElement, nper)
	}
	if m.projector != nil {
		m.projector.Invalidate()
	}
	rec.AdvectS = time.Since(tAdvect).Seconds()

	// ALE free surface update; every point must be relocated afterwards
	// because the mesh under it moved. Relocation is two-phase: the
	// locations run on the worker pool (each point touches only its own
	// slots), then the lost points are removed by a serial descending
	// sweep — the exact removal sequence of the original per-point loop. A
	// surface sunk to a column's bottom fails the step (*mesh.ColumnError).
	if m.FreeSurface {
		tALE := time.Now()
		mesh.UpdateFreeSurface(m.Prob.DA, u, dt, m.VerticalAxis)
		if _, err := m.Prob.DA.Columns(); err != nil {
			return fmt.Errorf("model: ALE update: %w", err)
		}
		lost := mpm.LocateAll(m.Prob, m.Points)
		for k := len(lost) - 1; k >= 0; k-- {
			m.Points.RemoveSwap(lost[k])
			rec.PointsRemoved++
		}
		if m.projector != nil {
			m.projector.Invalidate()
		}
		rec.ALES = time.Since(tALE).Seconds()
	}
	rec.TopoMin, rec.TopoMax = mesh.SurfaceRange(m.Prob.DA, m.VerticalAxis)
	rec.PPEMin, rec.PPEMax = math.MaxInt, 0
	for _, n := range mpm.CountPerElement(m.Prob, m.Points) {
		rec.PPEMin, rec.PPEMax = min(rec.PPEMin, n), max(rec.PPEMax, n)
	}

	// Energy equation.
	if m.T != nil && m.Temp != nil {
		tThermal := time.Now()
		if err := m.T.Step(m.Temp, u, dt); err != nil {
			return fmt.Errorf("model: thermal step: %w", err)
		}
		rec.ThermalS = time.Since(tThermal).Seconds()
	}

	m.Time += dt
	m.StepNum++
	rec.Step, rec.Time, rec.Dt = m.StepNum, m.Time, dt
	rec.NewtonIts, rec.KrylovIts, rec.KrylovBasis = res.Iterations, res.KrylovIts, res.KrylovBasis
	rec.FNorm0, rec.FNorm, rec.Converged = res.FNorm0, res.FNorm, res.Converged
	rec.ResidualEvals, rec.LineSearchStagnated = res.ResidualEvals, res.Stagnated
	rec.KrylovBreakdowns, rec.KrylovFallbacks = res.Breakdowns, res.Fallbacks
	rec.PointCount = m.Points.Len()
	if rep != nil {
		rec.addComm(rep.TakeCommStats())
	}
	// Simulated ranks are goroutines of this process: the step had its
	// width of cores, Workers for each rank.
	rec.CPUUtil = telemetry.ReadCPU().Utilization(cpuStart, m.width)
	rec.HelperShare = par.HelperShare(items0, pooled0)
	rec.WallS = time.Since(start).Seconds()
	m.Stats = append(m.Stats, *rec)
	return nil
}
