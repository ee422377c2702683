package stokes

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// sinkerDef is a deterministic miniature of the paper's sedimentation
// benchmark (§IV-A): dense viscous spheres in a lighter, less viscous
// ambient fluid, free surface on top. deta is the viscosity contrast Δη.
type sinkerDef struct {
	centers [][3]float64
	radius  float64
	deta    float64
}

func miniSinker(nc int, r float64, deta float64) sinkerDef {
	rng := rand.New(rand.NewSource(20140704))
	s := sinkerDef{radius: r, deta: deta}
	for len(s.centers) < nc {
		c := [3]float64{
			r + rng.Float64()*(1-2*r),
			r + rng.Float64()*(1-2*r),
			r + rng.Float64()*(1-2*r),
		}
		ok := true
		for _, o := range s.centers {
			d := math.Sqrt((c[0]-o[0])*(c[0]-o[0]) + (c[1]-o[1])*(c[1]-o[1]) + (c[2]-o[2])*(c[2]-o[2]))
			if d < 2*r {
				ok = false
				break
			}
		}
		if ok {
			s.centers = append(s.centers, c)
		}
	}
	return s
}

func (s sinkerDef) inside(x, y, z float64) bool {
	for _, c := range s.centers {
		d2 := (x-c[0])*(x-c[0]) + (y-c[1])*(y-c[1]) + (z-c[2])*(z-c[2])
		if d2 < s.radius*s.radius {
			return true
		}
	}
	return false
}

func (s sinkerDef) eta(x, y, z float64) float64 {
	if s.inside(x, y, z) {
		return 1
	}
	return 1 / s.deta
}

func (s sinkerDef) rho(x, y, z float64) float64 {
	if s.inside(x, y, z) {
		return 1.2
	}
	return 1
}

// sinkerProblem builds the discrete sinker: slip walls, free surface top.
// Coefficients go through the vertex-grid (Q1) projection pipeline — the
// same path the material-point method uses — rather than pointwise
// evaluation, mirroring the paper and keeping multigrid robust at high
// contrast.
func sinkerProblem(m int, deta float64, workers int) (*fem.Problem, sinkerDef) {
	def := miniSinker(4, 0.18, deta)
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := fem.NewProblem(da, bc)
	p.Workers = workers
	p.Gravity = [3]float64{0, 0, -9.8}
	etaV := fem.VertexFieldFromFunc(da, def.eta)
	rhoV := fem.VertexFieldFromFunc(da, def.rho)
	p.SetCoefficientsVertex(etaV, rhoV)
	return p, def
}

func sinkerConfig(p *fem.Problem, def sinkerDef) Config {
	cfg := DefaultConfig()
	cfg.CoeffCoarsen = mg.VertexCoeffCoarsener(p.DA,
		fem.VertexFieldFromFunc(p.DA, def.eta),
		fem.VertexFieldFromFunc(p.DA, def.rho))
	return cfg
}

// TestAlgebraicExactness: solving J·x = J·x* must recover x* — a pure
// consistency test of operator, preconditioner and Krylov plumbing.
func TestAlgebraicExactness(t *testing.T) {
	p, def := sinkerProblem(4, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	cfg.Params.RTol = 1e-10
	cfg.Params.MaxIt = 400
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := s.Op.N()
	xstar := la.NewVec(n)
	for i := range xstar {
		xstar[i] = rng.NormFloat64()
	}
	us, _ := s.Op.Split(xstar)
	for d, m := range p.BC.Mask {
		if m {
			us[d] = 0
		}
	}
	f := la.NewVec(n)
	s.Op.Apply(xstar, f)
	x := la.NewVec(n)
	res := krylov.GCR(s.Op, s.FS, f, x, cfg.Params, nil)
	if !res.Converged {
		t.Fatalf("no convergence: %d its rel %.2e", res.Iterations, res.Residual/res.Residual0)
	}
	x.AXPY(-1, xstar)
	if rel := x.Norm2() / xstar.Norm2(); rel > 1e-5 {
		t.Fatalf("solution error %.2e", rel)
	}
}

// solveSinker runs a full buoyancy-driven solve and returns the solver,
// state and result.
func solveSinker(t *testing.T, m int, deta float64, cfg Config, def sinkerDef, p *fem.Problem) (*Solver, la.Vec, krylov.Result) {
	t.Helper()
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	res := s.Solve(x, bu, nil)
	return s, x, res
}

// TestSinkerSolvePhysics: the buoyancy-driven solve must converge, be
// (discretely) divergence-free, and the dense spheres must sink while
// mass conservation pushes ambient fluid up.
func TestSinkerSolvePhysics(t *testing.T) {
	p, def := sinkerProblem(8, 100, 2)
	cfg := sinkerConfig(p, def)
	s, x, res := solveSinker(t, 8, 100, cfg, def, p)
	if !res.Converged {
		t.Fatalf("sinker solve failed: %d its rel %.2e", res.Iterations, res.Residual/res.Residual0)
	}
	u, _ := s.Op.Split(x)
	// Discrete incompressibility.
	div := la.NewVec(p.DA.NPresDOF())
	s.C.ApplyDRaw(u, div)
	if dn := div.Norm2(); dn > 1e-5*(1+u.Norm2()) {
		t.Fatalf("divergence residual %.3e for |u| = %.3e", dn, u.Norm2())
	}
	// The sphere regions must move down on average.
	var wSphere, wSum float64
	var nSphere int
	for n := 0; n < p.DA.NNodes(); n++ {
		cx, cy, cz := p.DA.NodeCoords(n)
		if def.inside(cx, cy, cz) {
			wSphere += u[3*n+2]
			nSphere++
		}
		wSum += u[3*n+2]
	}
	if nSphere == 0 {
		t.Fatal("no nodes inside spheres at this resolution")
	}
	if wSphere/float64(nSphere) >= 0 {
		t.Fatalf("spheres do not sink: mean w = %v", wSphere/float64(nSphere))
	}
	// Verify the final residual via the residual functional.
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	f := la.NewVec(s.Op.N())
	s.Op.Residual(x, bu, f)
	if rel := f.Norm2() / res.Residual0; rel > 2e-5 {
		t.Fatalf("posterior residual %.3e", rel)
	}
}

// TestMonitorEquilibration: Figure-2 behaviour — the solve starts with the
// vertical momentum residual dominating; the pressure residual rises to
// meet it before convergence sets in.
func TestMonitorEquilibration(t *testing.T) {
	p, def := sinkerProblem(8, 1000, 2)
	cfg := sinkerConfig(p, def)
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	mon := &Monitor{}
	res := s.Solve(x, bu, mon)
	if !res.Converged {
		t.Fatalf("no convergence: %d its", res.Iterations)
	}
	if len(mon.Pressure) < 3 {
		t.Fatal("monitor recorded too little")
	}
	// Initially the residual is pure momentum (pressure RHS is zero).
	if mon.Pressure[0] > 1e-12*mon.Vertical[0] {
		t.Fatalf("initial pressure residual nonzero: %v vs vertical %v", mon.Pressure[0], mon.Vertical[0])
	}
	// The pressure residual must rise before global convergence.
	maxP := 0.0
	for _, v := range mon.Pressure {
		if v > maxP {
			maxP = v
		}
	}
	if maxP < 1e-3*mon.Vertical[0] {
		t.Fatalf("pressure residual never equilibrated: max %v vs initial vertical %v", maxP, mon.Vertical[0])
	}
}

// TestNonzeroDirichlet: extension boundary conditions (the rifting-style
// driving) exercise the raw-residual path; the solution must reproduce the
// boundary data and remain divergence-free.
func TestNonzeroDirichlet(t *testing.T) {
	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.SetFaceComponent(da, mesh.XMin, 0, -1)
	bc.SetFaceComponent(da, mesh.XMax, 0, +1)
	bc.FreeSlipBox(da, mesh.YMin, mesh.ZMin, mesh.ZMax)
	p := fem.NewProblem(da, bc)
	p.SetCoefficientsFunc(func(x, y, z float64) float64 { return 1 }, nil)
	cfg := DefaultConfig()
	cfg.Levels = 2
	cfg.CoeffCoarsen = mg.FuncCoeffCoarsener(func(x, y, z float64) float64 { return 1 }, nil)
	cfg.VerticalAxis = 1
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	x := la.NewVec(s.Op.N())
	u, _ := s.Op.Split(x)
	p.BC.ApplyToVec(u)
	res := s.Solve(x, bu, nil)
	if !res.Converged {
		t.Fatalf("extension solve failed: %d its", res.Iterations)
	}
	// Boundary data intact.
	n0 := da.NodeID(0, 2, 2)
	n1 := da.NodeID(da.NPx-1, 2, 2)
	if u[3*n0] != -1 || u[3*n1] != 1 {
		t.Fatalf("boundary values clobbered: %v %v", u[3*n0], u[3*n1])
	}
	// Mass balance: with inflow/outflow faces the divergence residual must
	// still vanish (the flow adjusts through the free YMax face).
	div := la.NewVec(p.DA.NPresDOF())
	s.C.ApplyDRaw(u, div)
	if dn := div.Norm2(); dn > 1e-4 {
		t.Fatalf("divergence %.3e", dn)
	}
}

// TestSCRMatchesFieldSplit: Schur complement reduction and the
// block-triangular iteration must agree on the solution.
func TestSCRMatchesFieldSplit(t *testing.T) {
	p, def := sinkerProblem(4, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	cfg.Params.RTol = 1e-9
	cfg.Params.MaxIt = 500
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	// Field-split path.
	x1 := la.NewVec(s.Op.N())
	res1 := s.Solve(x1, bu, nil)
	if !res1.Converged {
		t.Fatal("fieldsplit solve failed")
	}
	// SCR path on the same right-hand side.
	scr := NewSCR(s.Op, s.MG, s.Mp)
	scr.OuterParams.RTol = 1e-9
	b := la.NewVec(s.Op.N())
	bu2, _ := s.Op.Split(b)
	bu2.Copy(bu)
	x2 := la.NewVec(s.Op.N())
	res2 := scr.Solve(b, x2)
	if !res2.Converged {
		t.Fatalf("SCR failed: %d its rel %.2e", res2.Iterations, res2.Residual/res2.Residual0)
	}
	u1, p1 := s.Op.Split(x1)
	u2, p2 := s.Op.Split(x2)
	du := slices.Clone(u1)
	du.AXPY(-1, u2)
	dp := slices.Clone(p1)
	dp.AXPY(-1, p2)
	if rel := du.Norm2() / u1.Norm2(); rel > 1e-4 {
		t.Fatalf("SCR velocity differs: %.2e", rel)
	}
	if rel := dp.Norm2() / p1.Norm2(); rel > 1e-4 {
		t.Fatalf("SCR pressure differs: %.2e", rel)
	}
}

// TestPureAMGConfiguration: Levels==1 uses smoothed aggregation on the
// assembled fine operator (the SA-i configuration).
func TestPureAMGConfiguration(t *testing.T) {
	p, def := sinkerProblem(6, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 1
	cfg.FineKind = op.Assembled
	cfg.AMGConfig = "gamg"
	cfg.Params.MaxIt = 400
	s, x, res := solveSinker(t, 6, 100, cfg, def, p)
	if !res.Converged {
		t.Fatalf("SA-i solve failed: %d its rel %.2e", res.Iterations, res.Residual/res.Residual0)
	}
	_ = s
	_ = x
}

// TestFGMRESOuter: the FGMRES outer method must reach the same tolerance.
func TestFGMRESOuter(t *testing.T) {
	p, def := sinkerProblem(4, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	cfg.OuterMethod = "fgmres"
	_, x, res := solveSinker(t, 4, 100, cfg, def, p)
	if !res.Converged {
		t.Fatalf("FGMRES outer failed: %d its", res.Iterations)
	}
	if x.HasNaN() {
		t.Fatal("NaN in solution")
	}
}

// TestRobustnessContrast: iteration count grows with Δη but the solver
// still converges at 10⁴ (Figure 2's robustness claim at reduced scale).
func TestRobustnessContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	its := map[float64]int{}
	for _, deta := range []float64{1, 100, 10000} {
		p, def := sinkerProblem(8, deta, 2)
		cfg := sinkerConfig(p, def)
		cfg.Params.RTol = 1e-5 // the paper's Stokes stopping tolerance
		cfg.Params.MaxIt = 1000
		_, _, res := solveSinker(t, 8, deta, cfg, def, p)
		if !res.Converged {
			t.Fatalf("Δη=%g failed after %d its (rel %.2e)", deta, res.Iterations, res.Residual/res.Residual0)
		}
		its[deta] = res.Iterations
	}
	if its[10000] < its[1] {
		t.Fatalf("iterations should not decrease with contrast: %v", its)
	}
}

// TestCoarseSolverVariants: every coarse-solver option must converge.
func TestCoarseSolverVariants(t *testing.T) {
	for _, cs := range []string{"gamg", "lu", "bjacobi", "asmcg"} {
		p, def := sinkerProblem(4, 100, 1)
		cfg := sinkerConfig(p, def)
		cfg.Levels = 2
		cfg.CoarseSolver = cs
		cfg.Params.MaxIt = 400
		_, _, res := solveSinker(t, 4, 100, cfg, def, p)
		if !res.Converged {
			t.Fatalf("coarse solver %q failed: %d its", cs, res.Iterations)
		}
	}
}

// TestInstrumentation: the timed wrappers must see every call.
func TestInstrumentation(t *testing.T) {
	p, def := sinkerProblem(4, 10, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	s, _, res := solveSinker(t, 4, 10, cfg, def, p)
	if !res.Converged {
		t.Fatal("solve failed")
	}
	outer := s.Tel.Child("outer")
	matmult, pcapply := outer.Timer("matmult").Calls(), outer.Timer("pcapply").Calls()
	if matmult == 0 || pcapply == 0 {
		t.Fatalf("instrumentation missed calls: matmult %d, pc %d", matmult, pcapply)
	}
	if int(pcapply) != res.Iterations {
		t.Fatalf("PC applies %d != iterations %d", pcapply, res.Iterations)
	}
	if s.SetupTime <= 0 {
		t.Fatal("setup not timed")
	}
}

var _ = math.Pi // keep math imported if unused paths change

// TestF32PreconditionedConvergence is the mixed-precision acceptance
// property: with the V-cycle preconditioner running entirely in float32
// (blocked resident smoothers, f32 coefficient streams) under a float64
// flexible outer method, convergence must stay within 3 iterations of the
// float64 hierarchy — across randomized viscosity contrasts up to the
// paper-scale 10⁶.
func TestF32PreconditionedConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	contrasts := []float64{math.Pow(10, 6*rng.Float64()), 1e6}
	for _, deta := range contrasts {
		solve := func(prec op.Precision) krylov.Result {
			p, def := sinkerProblem(8, deta, 2)
			cfg := sinkerConfig(p, def)
			cfg.OuterMethod = "fgmres"
			cfg.Params.RTol = 1e-5
			cfg.Params.MaxIt = 1000
			// High-contrast sinkers need a long flexible basis: restarting
			// at the default 50 stalls FGMRES near Δη=10⁶ in both
			// precisions, which would mask the f32-vs-f64 comparison.
			cfg.Params.Restart = 200
			cfg.Precision = prec
			_, _, res := solveSinker(t, 8, deta, cfg, def, p)
			if !res.Converged {
				t.Fatalf("Δη=%.3g prec=%v failed after %d its (rel %.2e)",
					deta, prec, res.Iterations, res.Residual/res.Residual0)
			}
			return res
		}
		r64 := solve(op.F64)
		r32 := solve(op.F32)
		d := r64.Iterations - r32.Iterations
		if d < 0 {
			d = -d
		}
		if d > 3 {
			t.Fatalf("Δη=%.3g: f32-preconditioned FGMRES took %d its, f64 took %d (|Δ|=%d > 3)",
				deta, r32.Iterations, r64.Iterations, d)
		}
		t.Logf("Δη=%.3g: f64 %d its, f32 %d its", deta, r64.Iterations, r32.Iterations)
	}
}

// TestCoupledOperatorFollowsLayout: the hierarchy's level 0 is the coupled
// matvec's operator exactly when op.Layout gives both the same kind; at
// f32 the hierarchy builds its own single-precision level 0 and the
// coupled operator stays float64; and a reduced-precision fine kind never
// reaches a solver.
func TestCoupledOperatorFollowsLayout(t *testing.T) {
	for _, tc := range []struct {
		fine           op.Kind
		prec           op.Precision
		coupled, level op.Kind
	}{
		{op.TensorC, op.F64, op.TensorC, op.TensorC},
		{op.TensorC, op.F32, op.TensorC, op.TensorF32},
		{op.Galerkin, op.F64, op.Assembled, op.Assembled},
		{op.Assembled, op.F32, op.Assembled, op.AssembledF32},
	} {
		p, def := sinkerProblem(4, 100, 1)
		cfg := sinkerConfig(p, def)
		cfg.Levels = 2
		cfg.FineKind, cfg.Precision = tc.fine, tc.prec
		s, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		auu, lev0 := s.Op.Auu.(op.Operator), s.MG.Levels[0].Op
		if auu.Kind() != tc.coupled || lev0.Kind() != tc.level {
			t.Errorf("%v/%v: coupled %v, level 0 %v; want %v, %v", tc.fine, tc.prec, auu.Kind(), lev0.Kind(), tc.coupled, tc.level)
		}
		if shared := auu == lev0; shared != (tc.coupled == tc.level) {
			t.Errorf("%v/%v: coupled operator shared with level 0 = %v", tc.fine, tc.prec, shared)
		}
	}
	p, def := sinkerProblem(4, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.FineKind = op.TensorF32
	if _, err := New(p, cfg); err == nil || !strings.Contains(err.Error(), "-precision f32") {
		t.Errorf("New with fine kind mf32 = %v; want op.Layout's rejection", err)
	}
}

// TestBlockedSolveMatchesUnblocked: wavefront-blocked smoothing is a
// bit-level reordering of the full-grid recurrence, so the default solve
// must take the SAME iteration count and land on the SAME bits, at
// workers 1/2/4/8, as a test-local reference: the same solver with the
// blocked smoothers taken out of its hierarchy.
func TestBlockedSolveMatchesUnblocked(t *testing.T) {
	solve := func(workers int, fullGrid bool) (la.Vec, krylov.Result) {
		p, def := sinkerProblem(8, 1000, workers)
		cfg := sinkerConfig(p, def)
		cfg.Workers = workers
		cfg.Params.RTol = 1e-5
		cfg.Params.MaxIt = 500
		s, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for l, lev := range s.MG.Levels[:len(s.MG.Levels)-1] {
			if lev.Blocked == nil {
				t.Fatalf("level %d of the default hierarchy has no blocked smoother", l)
			}
			if fullGrid {
				lev.Blocked = nil
			}
		}
		bu := la.NewVec(p.DA.NVelDOF())
		fem.MomentumRHS(p, bu)
		x := la.NewVec(s.Op.N())
		res := s.Solve(x, bu, nil)
		if !res.Converged {
			t.Fatalf("workers %d fullGrid=%v: not converged after %d its", workers, fullGrid, res.Iterations)
		}
		return x, res
	}
	xRef, rRef := solve(1, true)
	for _, w := range []int{1, 2, 4, 8} {
		x, r := solve(w, false)
		if r.Iterations != rRef.Iterations {
			t.Fatalf("workers %d: blocked solve took %d its, full-grid reference %d", w, r.Iterations, rRef.Iterations)
		}
		for i := range x {
			if x[i] != xRef[i] {
				t.Fatalf("workers %d: dof %d differs bitwise from the full-grid reference: %v vs %v", w, i, x[i], xRef[i])
			}
		}
	}
}

// TestGalerkinInputLevelTracksRefresh: level 1 of the default layout
// applies its resident kernel and keeps its assembled matrix only as the
// Galerkin input. The two must realize the same operator (1e-12) after the
// cold build and again after the mesh moved and the viscosity changed and
// Context.Prepare refreshed in place — and the refreshed matrix must be
// what a cold build on the new state assembles, bit for bit.
func TestGalerkinInputLevelTracksRefresh(t *testing.T) {
	p, def := sinkerProblem(8, 1000, 2)
	cfg := sinkerConfig(p, def)
	var ctx Context
	rng := rand.New(rand.NewSource(5))
	check := func(stage string, s *Solver) {
		t.Helper()
		lev := s.MG.Levels[1]
		a := lev.Op.CSR()
		if a == nil || lev.Blocked == nil {
			t.Fatalf("%s: level 1 (%v) is not a resident level keeping its matrix", stage, lev.Op.Kind())
		}
		n := lev.Op.N()
		x, yr, ya := la.NewVec(n), la.NewVec(n), la.NewVec(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lev.Op.Apply(x, yr)
		a.MulVec(x, ya)
		scale := ya.NormInf()
		for i := range yr {
			if d := math.Abs(yr[i] - ya[i]); d > 1e-12*scale {
				t.Fatalf("%s: resident apply and matrix differ at dof %d: %v vs %v", stage, i, yr[i], ya[i])
			}
		}
	}
	s, _, err := ctx.Prepare(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("cold", s)

	p.DA.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x, y, z * (1 + 0.05*math.Sin(math.Pi*x)*math.Cos(math.Pi*y))
	})
	def.deta = 50
	p.SetCoefficientsVertex(fem.VertexFieldFromFunc(p.DA, def.eta), fem.VertexFieldFromFunc(p.DA, def.rho))
	cfg = sinkerConfig(p, def)
	ctx.InvalidateGeometry()
	s, reused, err := ctx.Prepare(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("Prepare rebuilt cold; the refresh path was not exercised")
	}
	check("refreshed", s)

	cold, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := s.MG.Levels[1].Op.CSR().Val, cold.MG.Levels[1].Op.CSR().Val
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refreshed level-1 matrix entry %d = %v, cold build %v", i, got[i], want[i])
		}
	}
}

// TestSetupStageTimersAttributeRefresh: the setup_* stage timers of the
// "outer" scope account for a 3-level refresh — with and without a mesh
// move — to within a tenth of setup_seconds, and name every stage the
// refresh has.
func TestSetupStageTimersAttributeRefresh(t *testing.T) {
	p, def := sinkerProblem(8, 100, 2)
	cfg := sinkerConfig(p, def)
	cfg.Telemetry = telemetry.New().Root()
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.MG.Levels) != 3 {
		t.Fatalf("%d levels, want 3", len(s.MG.Levels))
	}
	stageSum := func() (sum time.Duration, names []string) {
		sn := cfg.Telemetry.Child("outer").Snapshot()
		for name, tm := range sn.Timers {
			if strings.HasPrefix(name, "setup_") {
				sum += time.Duration(tm.Seconds * float64(time.Second))
				names = append(names, name)
			}
		}
		return sum, names
	}
	before, _ := stageSum()
	if float64(before) < 0.9*float64(s.SetupTime) {
		t.Fatalf("cold build: stages sum to %v of %v", before, s.SetupTime)
	}
	for _, geom := range []bool{false, true} {
		if err := s.Refresh(geom); err != nil {
			t.Fatal(err)
		}
		after, names := stageSum()
		if got := after - before; float64(got) < 0.9*float64(s.SetupTime) || got > s.SetupTime {
			t.Fatalf("refresh(geom=%v): stages sum to %v of setup_seconds %v", geom, got, s.SetupTime)
		}
		before = after
		for _, want := range []string{"setup_coarsen", "setup_pressure_mass", "setup_coupling",
			"setup_op_l0_mfc", "setup_op_l1_mfc", "setup_op_l2_galerkin",
			"setup_diag_l0", "setup_eig_l0", "setup_diag_l2", "setup_eig_l2", "setup_coarse_solver"} {
			if !slices.Contains(names, want) {
				t.Fatalf("no stage timer %q among %v", want, names)
			}
		}
	}
}
