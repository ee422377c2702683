package amg

import (
	"math"
	"math/rand"
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
	if sa.NumLevels < 2 {
		t.Fatalf("expected coarsening, got %d levels", sa.NumLevels)
	}
	last := sa.SetupStats[len(sa.SetupStats)-1]
	if last.N > 2*sa.opt.MaxCoarseSize && sa.NumLevels < sa.opt.MaxLevels {
		t.Fatalf("coarsest level still has %d unknowns", last.N)
	}
	if sa.OperatorComplexity < 1 || sa.OperatorComplexity > 3 {
		t.Fatalf("operator complexity %v outside sane range", sa.OperatorComplexity)
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
	a := dropSmall(b.ToCSR(), 0.01)
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
	pm, cnns, naggs, err := buildProlongator(a, 3, nns, GAMGLike())
	if err != nil {
		t.Fatal(err)
	}
	if pm == nil || naggs <= 0 {
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

// TestSAPreservesNearNullSpace: the smoothed prolongator must reproduce
// the near-null space: B_fine ≈ P·B_coarse up to the smoothing correction
// (exactly for the tentative part: P0·R = B).
func TestTentativeProlongatorExactness(t *testing.T) {
	p, a := elasticityProblem(3, func(x, y, z float64) float64 { return 1 })
	nns := rbm(p)
	orig := nns.Clone()
	opt := GAMGLike()
	opt.OmegaScale = 1e-12 // effectively unsmoothed
	pm, cnns, _, err := buildProlongator(a, 3, nns, opt)
	if err != nil {
		t.Fatal(err)
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
