package fem

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// testProblem builds a small deformed mesh with strongly varying viscosity
// and free-slip boundary conditions — the hardest regime for operator
// equivalence (nontrivial metric terms, coefficient variation, BC rows).
func testProblem(t testing.TB, mx, my, mz int, workers int) *Problem {
	t.Helper()
	da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.06*math.Sin(math.Pi*y)*math.Sin(math.Pi*z),
			y + 0.05*math.Sin(math.Pi*x),
			z + 0.04*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := NewProblem(da, bc)
	p.Workers = workers
	p.SetCoefficientsFunc(
		func(x, y, z float64) float64 {
			return math.Exp(3 * math.Sin(5*x) * math.Cos(4*y) * math.Sin(3*z))
		},
		func(x, y, z float64) float64 { return 1 + 0.2*z },
	)
	return p
}

func randVelocity(rng *rand.Rand, n int) la.Vec {
	u := la.NewVec(n)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	return u
}

// randFreeVelocity is randVelocity with the constrained entries zeroed.
func randFreeVelocity(rng *rand.Rand, p *Problem) la.Vec {
	u := randVelocity(rng, p.DA.NVelDOF())
	for d, m := range p.BC.Mask {
		if m {
			u[d] = 0
		}
	}
	return u
}

// TestOperatorVariantsAgree is the central Table-I correctness test: all
// four operator applications must produce identical results.
func TestOperatorVariantsAgree(t *testing.T) {
	p := testProblem(t, 3, 2, 2, 1)
	rng := rand.New(rand.NewSource(1))
	u := randVelocity(rng, p.DA.NVelDOF())

	mf := NewMF(p)
	tens := NewTensor(p)
	tc := NewResident(p, false)
	asm := krylov.CSROp{A: AssembleViscous(p)}

	n := p.DA.NVelDOF()
	yMF, yT, yTC, yA := la.NewVec(n), la.NewVec(n), la.NewVec(n), la.NewVec(n)
	mf.Apply(u, yMF)
	tens.Apply(u, yT)
	tc.Apply(u, yTC)
	asm.Apply(u, yA)

	scale := yMF.NormInf()
	for i := 0; i < n; i++ {
		if math.Abs(yT[i]-yMF[i]) > 1e-11*scale {
			t.Fatalf("Tensor vs MF mismatch at %d: %v vs %v", i, yT[i], yMF[i])
		}
		if math.Abs(yTC[i]-yMF[i]) > 1e-11*scale {
			t.Fatalf("TensorC vs MF mismatch at %d: %v vs %v", i, yTC[i], yMF[i])
		}
		if math.Abs(yA[i]-yMF[i]) > 1e-10*scale {
			t.Fatalf("Asm vs MF mismatch at %d: %v vs %v", i, yA[i], yMF[i])
		}
	}
}

// TestOperatorParallelDeterminism: worker count must not change results
// beyond roundoff (same element order within colors ⇒ bitwise identical).
func TestOperatorParallelDeterminism(t *testing.T) {
	p1 := testProblem(t, 4, 2, 2, 1)
	p4 := testProblem(t, 4, 2, 2, 4)
	rng := rand.New(rand.NewSource(3))
	u := randVelocity(rng, p1.DA.NVelDOF())
	y1 := la.NewVec(len(u))
	y4 := la.NewVec(len(u))
	NewTensor(p1).Apply(u, y1)
	NewTensor(p4).Apply(u, y4)
	for i := range y1 {
		if y1[i] != y4[i] {
			t.Fatalf("parallel apply not deterministic at %d: %v vs %v", i, y1[i], y4[i])
		}
	}
}

// TestOperatorSymmetric: <Au,v> == <u,Av> (self-adjoint bilinear form with
// symmetric elimination).
func TestOperatorSymmetric(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	rng := rand.New(rand.NewSource(5))
	n := p.DA.NVelDOF()
	op := NewTensor(p)
	for trial := 0; trial < 5; trial++ {
		u := randVelocity(rng, n)
		v := randVelocity(rng, n)
		au, av := la.NewVec(n), la.NewVec(n)
		op.Apply(u, au)
		op.Apply(v, av)
		d1, d2 := au.Dot(v), av.Dot(u)
		if math.Abs(d1-d2) > 1e-9*(1+math.Abs(d1)) {
			t.Fatalf("asymmetry: %v vs %v", d1, d2)
		}
	}
}

// TestOperatorSPD: <Au,u> > 0 for nonzero u (free dofs), since the viscous
// block is elliptic once rigid modes are removed by the BCs.
func TestOperatorSPD(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	rng := rand.New(rand.NewSource(7))
	n := p.DA.NVelDOF()
	op := NewTensor(p)
	for trial := 0; trial < 10; trial++ {
		u := randVelocity(rng, n)
		au := la.NewVec(n)
		op.Apply(u, au)
		if e := au.Dot(u); e <= 0 {
			t.Fatalf("trial %d: energy %v <= 0", trial, e)
		}
	}
}

// TestOperatorNullSpace: without boundary conditions, rigid-body motions
// (translations and linearized rotations) produce zero viscous force.
func TestOperatorNullSpace(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*y*z, y + 0.03*x, z
	})
	p := NewProblem(da, nil) // no constraints
	p.SetCoefficientsFunc(func(x, y, z float64) float64 { return 1 + x + 2*y*z }, nil)
	op := NewTensor(p)
	n := p.DA.NVelDOF()
	modes := make([]la.Vec, 6)
	for m := range modes {
		modes[m] = la.NewVec(n)
	}
	for nd := 0; nd < da.NNodes(); nd++ {
		x, y, z := da.NodeCoords(nd)
		// Translations.
		modes[0][3*nd] = 1
		modes[1][3*nd+1] = 1
		modes[2][3*nd+2] = 1
		// Rotations about the three axes.
		modes[3][3*nd+1] = -z
		modes[3][3*nd+2] = y
		modes[4][3*nd] = z
		modes[4][3*nd+2] = -x
		modes[5][3*nd] = -y
		modes[5][3*nd+1] = x
	}
	y := la.NewVec(n)
	for m, u := range modes {
		op.Apply(u, y)
		if r := y.NormInf(); r > 1e-11 {
			t.Fatalf("rigid mode %d not in null space: |Au|∞ = %v", m, r)
		}
	}
}

// TestOperatorBCRows: constrained rows act as identity; constrained
// columns are ignored.
func TestOperatorBCRows(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	rng := rand.New(rand.NewSource(11))
	n := p.DA.NVelDOF()
	op := NewTensor(p)
	u := randVelocity(rng, n)
	y := la.NewVec(n)
	op.Apply(u, y)
	for d, m := range p.BC.Mask {
		if m && y[d] != u[d] {
			t.Fatalf("constrained row %d: y=%v u=%v", d, y[d], u[d])
		}
	}
	// Perturbing constrained input entries must not change free rows.
	u2 := slices.Clone(u)
	for d, m := range p.BC.Mask {
		if m {
			u2[d] += rng.NormFloat64()
		}
	}
	y2 := la.NewVec(n)
	op.Apply(u2, y2)
	for d, m := range p.BC.Mask {
		if !m && y[d] != y2[d] {
			t.Fatalf("free row %d influenced by constrained column", d)
		}
	}
}

// TestDiagonalMatchesAssembled: the matrix-free diagonal equals the
// assembled matrix diagonal.
func TestDiagonalMatchesAssembled(t *testing.T) {
	p := testProblem(t, 2, 2, 3, 2)
	d1 := la.NewVec(p.DA.NVelDOF())
	AssembleViscous(p).Diag(d1)
	d2 := la.NewVec(p.DA.NVelDOF())
	Diagonal(p, d2)
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-11*(1+math.Abs(d1[i])) {
			t.Fatalf("diag mismatch at %d: %v vs %v", i, d1[i], d2[i])
		}
	}
	// Diagonal is strictly positive.
	for i, v := range d2 {
		if v <= 0 {
			t.Fatalf("nonpositive diagonal at %d: %v", i, v)
		}
	}
}

// TestAssembledNNZBounds: rows have between 81 and 375 nonzeros as per
// paper §III-D (interior corner nodes couple to 125 nodes × 3 comps).
func TestAssembledNNZBounds(t *testing.T) {
	p := testProblem(t, 4, 4, 4, 1)
	a := AssembleViscous(p)
	min, max := 1<<30, 0
	for r := 0; r < a.NRows; r++ {
		nnz := a.RowPtr[r+1] - a.RowPtr[r]
		if nnz < min {
			min = nnz
		}
		if nnz > max {
			max = nnz
		}
	}
	if min != 81 || max != 375 {
		t.Fatalf("row nnz range [%d,%d], want [81,375]", min, max)
	}
}

// TestApplyFreeRowsConsistency: for a state with zero constrained entries,
// TensorOp.ApplyFreeRows equals Apply on free rows and zero on constrained
// rows.
func TestApplyFreeRowsConsistency(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	rng := rand.New(rand.NewSource(13))
	n := p.DA.NVelDOF()
	u := randFreeVelocity(rng, p)
	op := NewTensor(p)
	y1, y2 := la.NewVec(n), la.NewVec(n)
	op.Apply(u, y1)
	op.ApplyFreeRows(u, y2)
	for d, m := range p.BC.Mask {
		if m {
			if y2[d] != 0 {
				t.Fatalf("constrained row %d not zeroed: %v", d, y2[d])
			}
		} else if y1[d] != y2[d] {
			t.Fatalf("free row %d differs: %v vs %v", d, y1[d], y2[d])
		}
	}
}
