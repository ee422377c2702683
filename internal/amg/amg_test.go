package amg

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// elasticityProblem assembles the viscous (elasticity-like) block on an
// m³ mesh with free-slip walls — the operator class AMG must handle.
func elasticityProblem(m int, eta func(x, y, z float64) float64) (*fem.Problem, *la.CSR) {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
	p := fem.NewProblem(da, bc)
	p.SetCoefficientsFunc(eta, nil)
	return p, fem.AssembleViscous(p)
}

func rbm(p *fem.Problem) *la.Dense {
	return RigidBodyModes(p.DA.Coords, p.BC.Mask)
}

func TestRigidBodyModesInNullSpace(t *testing.T) {
	// Unconstrained operator must annihilate all six modes (A·B ≈ 0).
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	p := fem.NewProblem(da, nil)
	a := fem.AssembleViscous(p)
	b := RigidBodyModes(p.DA.Coords, nil)
	n := a.NRows
	col := la.NewVec(n)
	y := la.NewVec(n)
	for m := 0; m < 6; m++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, m)
		}
		a.MulVec(col, y)
		if r := y.NormInf(); r > 1e-10 {
			t.Fatalf("mode %d: |A·b|∞ = %v", m, r)
		}
	}
}

func TestSAHierarchyShape(t *testing.T) {
	p, a := elasticityProblem(4, func(x, y, z float64) float64 { return 1 })
	sa, err := New(a, 3, rbm(p), GAMGLike())
	if err != nil {
		t.Fatal(err)
	}
	levels := len(sa.levels)
	if levels < 2 {
		t.Fatalf("expected coarsening, got %d levels", levels)
	}
	last := sa.levels[levels-1]
	if n := last.a.NRows; n > 2*maxCoarseSize && levels < maxLevels {
		t.Fatalf("coarsest level still has %d unknowns", n)
	}
	if last.smooth != nil || last.r != nil {
		t.Fatal("the coarsest level, which the exact solve handles, has a smoother")
	}
	var nnz int
	for _, lev := range sa.levels {
		nnz += lev.a.NNZ()
	}
	if c := float64(nnz) / float64(a.NNZ()); c < 1 || c > 3 {
		t.Fatalf("operator complexity %v outside sane range", c)
	}
}

func saIterations(t *testing.T, m int, eta func(x, y, z float64) float64, opt Options) int {
	t.Helper()
	p, a := elasticityProblem(m, eta)
	sa, err := New(a, 3, rbm(p), opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	n := a.NRows
	b := la.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
		if p.BC.Mask[i] {
			b[i] = 0
		}
	}
	x := la.NewVec(n)
	prm := krylov.DefaultParams()
	prm.RTol = 1e-8
	prm.MaxIt = 200
	res := krylov.FGMRES(krylov.CSROp{A: a}, sa, b, x, prm)
	if !res.Converged {
		t.Fatalf("SA-FGMRES did not converge (%d its, rel %e)", res.Iterations, res.Residual/res.Residual0)
	}
	return res.Iterations
}

func TestSAConvergesConstant(t *testing.T) {
	its := saIterations(t, 6, func(x, y, z float64) float64 { return 1 }, GAMGLike())
	if its > 60 {
		t.Fatalf("SA took %d iterations", its)
	}
}

func TestSAConvergesVariable(t *testing.T) {
	eta := func(x, y, z float64) float64 {
		return math.Pow(10, 3*math.Sin(math.Pi*x)*math.Sin(math.Pi*y)*math.Sin(math.Pi*z))
	}
	its := saIterations(t, 6, eta, GAMGLike())
	if its > 100 {
		t.Fatalf("SA variable viscosity took %d iterations", its)
	}
}

func TestSAMLConfigurations(t *testing.T) {
	one := func(x, y, z float64) float64 { return 1 }
	itML := saIterations(t, 5, one, MLLike())
	itStrong := saIterations(t, 5, one, MLStrongLike())
	if itML > 80 {
		t.Fatalf("ML-like config took %d iterations", itML)
	}
	// The stronger smoother should not need more iterations.
	if itStrong > itML+5 {
		t.Fatalf("SAML-ii (%d its) worse than SAML-i (%d its)", itStrong, itML)
	}
}

// TestSAMLiiCycleAllocatesNoLevelVectors: the SAML-ii smoother's
// post-smooth keeps its residual and correction with the level, and its
// inner FGMRES keeps one lent workspace — basis, Hessenberg matrix,
// rotations and triangular solution — so once a first Apply has run, a
// V-cycle allocates nothing.
func TestSAMLiiCycleAllocatesNoLevelVectors(t *testing.T) {
	p, a := elasticityProblem(5, func(x, y, z float64) float64 { return 1 })
	sa, err := New(a, 3, rbm(p), MLStrongLike())
	if err != nil {
		t.Fatal(err)
	}
	n := a.NRows
	r, z := la.NewVec(n), la.NewVec(n)
	for i := range r {
		r[i] = float64(1 + i%7)
	}
	sa.Apply(r, z)
	const applies = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < applies; i++ {
		sa.Apply(r, z)
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total != 0 {
		t.Fatalf("%d bytes allocated over %d V-cycles, want 0", total, applies)
	}
}

func TestSABeatsJacobiPreconditioning(t *testing.T) {
	one := func(x, y, z float64) float64 { return 1 }
	p, a := elasticityProblem(6, one)
	rng := rand.New(rand.NewSource(9))
	n := a.NRows
	b := la.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
		if p.BC.Mask[i] {
			b[i] = 0
		}
	}
	prm := krylov.DefaultParams()
	prm.RTol = 1e-6
	prm.MaxIt = 2000
	d := la.NewVec(n)
	a.Diag(d)
	x1 := la.NewVec(n)
	jres := krylov.CG(krylov.CSROp{A: a}, krylov.NewJacobi(d), b, x1, prm)
	sa, err := New(a, 3, rbm(p), GAMGLike())
	if err != nil {
		t.Fatal(err)
	}
	x2 := la.NewVec(n)
	sres := krylov.FGMRES(krylov.CSROp{A: a}, sa, b, x2, prm)
	if !sres.Converged || sres.Iterations >= jres.Iterations {
		t.Fatalf("SA %d its vs Jacobi-CG %d its", sres.Iterations, jres.Iterations)
	}
}

func TestDropSmall(t *testing.T) {
	b := la.NewBuilder(2, 3)
	b.Add(0, 0, 1.0)
	b.Add(0, 1, 0.001)
	b.Add(0, 2, 0.5)
	b.Add(1, 1, 2.0)
	a := b.ToCSR()
	dropSmall(a, 0.01)
	if a.At(0, 1) != 0 {
		t.Fatal("small entry not dropped")
	}
	if a.At(0, 0) != 1 || a.At(0, 2) != 0.5 || a.At(1, 1) != 2 {
		t.Fatal("large entries corrupted")
	}
}

// TestAggregationCoversAllNodes: every node lands in exactly one
// aggregate, exercised indirectly through P0 row sums: each block row of
// the tentative prolongator has at least one nonzero (no orphan dofs)
// unless the near-null space is zero there (constrained dofs).
func TestProlongatorRowCoverage(t *testing.T) {
	p, a := elasticityProblem(4, func(x, y, z float64) float64 { return 1 })
	nns := rbm(p)
	var w setupWork
	pm, cnns := &la.CSR{}, &la.Dense{}
	naggs := w.tentative(a, 3, nns, pm, cnns)
	if naggs <= 0 {
		t.Fatal("no aggregation")
	}
	if cnns.Rows != naggs*6 || cnns.Cols != 6 {
		t.Fatalf("coarse NNS shape %dx%d", cnns.Rows, cnns.Cols)
	}
	orphans := 0
	for r := 0; r < pm.NRows; r++ {
		if pm.RowPtr[r+1] == pm.RowPtr[r] && !p.BC.Mask[r] {
			orphans++
		}
	}
	if orphans > 0 {
		t.Fatalf("%d free dofs with empty prolongator rows", orphans)
	}
	// Aggregates must coarsen meaningfully: ≥ 4× reduction in nodes.
	if naggs*4 > a.NRows/3 {
		t.Fatalf("weak coarsening: %d aggregates from %d nodes", naggs, a.NRows/3)
	}
}

// TestTentativeProlongatorExactness: the tentative prolongator
// reproduces the near-null space, P0·B_coarse = B_fine (the per-aggregate
// QR: P0·R = B), before smoothing corrects it.
func TestTentativeProlongatorExactness(t *testing.T) {
	p, a := elasticityProblem(3, func(x, y, z float64) float64 { return 1 })
	nns := rbm(p)
	orig := &la.Dense{Rows: nns.Rows, Cols: nns.Cols, Data: slices.Clone(nns.Data)}
	var w setupWork
	pm, cnns := &la.CSR{}, &la.Dense{}
	if w.tentative(a, 3, nns, pm, cnns) == 0 {
		t.Fatal("no aggregation")
	}
	n := a.NRows
	for m := 0; m < 6; m++ {
		cvec := la.NewVec(cnns.Rows)
		for i := range cvec {
			cvec[i] = cnns.At(i, m)
		}
		fvec := la.NewVec(n)
		pm.MulVec(cvec, fvec)
		for i := 0; i < n; i++ {
			want := orig.At(i, m)
			if math.Abs(fvec[i]-want) > 1e-8*(1+math.Abs(want)) {
				t.Fatalf("mode %d dof %d: P·Bc = %v, B = %v", m, i, fvec[i], want)
			}
		}
	}
}

// vcycleBits applies one V-cycle of sa to a fixed right-hand side.
func vcycleBits(sa *SA, n int) la.Vec {
	r, z := la.NewVec(n), la.NewVec(n)
	for i := range r {
		r[i] = math.Sin(float64(3*i + 1))
	}
	sa.Apply(r, z)
	return z
}

// refreshCases are the matrices TestSARefreshMatchesNew refreshes a
// hierarchy built on the 4³ unit-viscosity problem onto: another
// viscosity field, another order, the first matrix again, the second
// again.
func refreshCases() []struct {
	p *fem.Problem
	a *la.CSR
} {
	one := func(x, y, z float64) float64 { return 1 }
	bumpy := func(x, y, z float64) float64 { return math.Pow(10, 2*math.Sin(3*x)*math.Cos(2*y)*z) }
	p4, a4 := elasticityProblem(4, one)
	p4b, a4b := elasticityProblem(4, bumpy)
	p3, a3 := elasticityProblem(3, bumpy)
	return []struct {
		p *fem.Problem
		a *la.CSR
	}{{p4, a4}, {p4b, a4b}, {p3, a3}, {p4, a4}, {p4b, a4b}}
}

// saConfigs are the three set-ups: GAMG, ML (SAML-i) and SAML-ii.
var saConfigs = map[string]Options{"gamg": GAMGLike(), "ml": MLLike(), "mlstrong": MLStrongLike()}

// TestSARefreshMatchesNew: a hierarchy refreshed onto new values, onto
// another viscosity field and onto a matrix of another order (the level
// count changes) gives the hierarchy depth and the V-cycle bits of New on
// the same matrix, for the GAMG, ML and SAML-ii configurations.
func TestSARefreshMatchesNew(t *testing.T) {
	cases := refreshCases()
	for name, opt := range saConfigs {
		sa, err := New(cases[0].a, 3, rbm(cases[0].p), opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cases[1:] {
			if err := sa.Refresh(c.a, rbm(c.p)); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(c.a, 3, rbm(c.p), opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sa.levels) != len(fresh.levels) {
				t.Fatalf("%s refresh %d: %d levels, New %d", name, i, len(sa.levels), len(fresh.levels))
			}
			got, want := vcycleBits(sa, c.a.NRows), vcycleBits(fresh, c.a.NRows)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s refresh %d: V-cycle entry %d = %v, New %v", name, i, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSARefreshAfterFailure: a refresh onto a singular matrix returns the
// coarse factorization's error and leaves a hierarchy that refuses to
// cycle; the next refresh onto a good matrix is bitwise New again.
func TestSARefreshAfterFailure(t *testing.T) {
	cases := refreshCases()
	sa, err := New(cases[0].a, 3, rbm(cases[0].p), GAMGLike())
	if err != nil {
		t.Fatal(err)
	}
	zero := *cases[0].a
	zero.Val = make([]float64, len(zero.Val))
	if err := sa.Refresh(&zero, rbm(cases[0].p)); err == nil {
		t.Fatal("refresh onto the zero matrix succeeded")
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Refresh failed") {
				t.Fatalf("V-cycle after a failed refresh: panic %q", msg)
			}
		}()
		vcycleBits(sa, zero.NRows)
	}()
	c := cases[1]
	if err := sa.Refresh(c.a, rbm(c.p)); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(c.a, 3, rbm(c.p), GAMGLike())
	if err != nil {
		t.Fatal(err)
	}
	got, want := vcycleBits(sa, c.a.NRows), vcycleBits(fresh, c.a.NRows)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("V-cycle entry %d = %v after recovery, New %v", k, got[k], want[k])
		}
	}
}

// TestAllocBudgetSARefresh: once its storage has grown to fit, a refresh
// of the hierarchy allocates at most 2 % of the bytes New does — on the
// 4³ problem 144 KB of New's 16–20 MB, the dense row scratch of the
// sparse products — for the GAMG, ML and SAML-ii configurations.
func TestAllocBudgetSARefresh(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cases := refreshCases()
	c := cases[1]
	nns := rbm(c.p)
	bytes := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, opt := range saConfigs {
		sa, err := New(cases[0].a, 3, rbm(cases[0].p), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sa.Refresh(c.a, nns); err != nil {
			t.Fatal(err)
		}
		refresh := bytes(func() {
			if err := sa.Refresh(c.a, nns); err != nil {
				t.Fatal(err)
			}
		})
		cold := bytes(func() {
			if _, err := New(c.a, 3, nns, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: a refresh allocates %d B, New %d B", name, refresh, cold)
		if 50*refresh > cold {
			t.Errorf("%s: a refresh allocates %d B, more than 2 %% of New's %d B", name, refresh, cold)
		}
	}
}
