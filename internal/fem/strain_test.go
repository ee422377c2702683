package fem

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// TestStrainRateLinearField: for u = (a·x, b·y, c·z) the strain rate is
// the constant diagonal (a,b,c) everywhere.
func TestStrainRateLinearField(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.04*y, y + 0.03*z, z
	})
	p := NewProblem(da, nil)
	u := la.NewVec(p.DA.NVelDOF())
	a, b, c := 2.0, -1.0, -1.0
	for n := 0; n < da.NNodes(); n++ {
		x, y, z := da.NodeCoords(n)
		u[3*n] = a * x
		u[3*n+1] = b * y
		u[3*n+2] = c * z
	}
	nel := da.NElements()
	d6 := make([]float64, 6*NQP*nel)
	eII := make([]float64, NQP*nel)
	StrainRateAtQP(p, u, d6, eII)
	wantII := math.Sqrt(0.5 * (a*a + b*b + c*c))
	for q := 0; q < NQP*nel; q++ {
		if math.Abs(d6[6*q]-a) > 1e-11 || math.Abs(d6[6*q+1]-b) > 1e-11 || math.Abs(d6[6*q+2]-c) > 1e-11 {
			t.Fatalf("qp %d: diag (%v,%v,%v)", q, d6[6*q], d6[6*q+1], d6[6*q+2])
		}
		for k := 3; k < 6; k++ {
			if math.Abs(d6[6*q+k]) > 1e-11 {
				t.Fatalf("qp %d: shear component %v", q, d6[6*q+k])
			}
		}
		if math.Abs(eII[q]-wantII) > 1e-11 {
			t.Fatalf("qp %d: ε̇_II = %v, want %v", q, eII[q], wantII)
		}
	}
	// Point evaluation agrees.
	cur := p.Cursor(u, nil)
	cur.Seek(3)
	got := StrainRateAtPoint(&cur, 0.3, -0.2, 0.7)
	if math.Abs(got-wantII) > 1e-11 {
		t.Fatalf("point ε̇_II = %v, want %v", got, wantII)
	}
	// Rigid rotation has zero strain rate.
	for n := 0; n < da.NNodes(); n++ {
		_, y, z := da.NodeCoords(n)
		u[3*n] = 0
		u[3*n+1] = -z
		u[3*n+2] = y
	}
	StrainRateAtQP(p, u, nil, eII)
	for q, v := range eII {
		if v > 1e-11 {
			t.Fatalf("rotation strain rate at qp %d: %v", q, v)
		}
	}
}

// TestNewtonOpConsistency: with Fac = 0 the Newton operator equals the
// Picard (Tensor) operator; it stays symmetric with Fac ≠ 0 (the added
// rank-one term D⊗D is symmetric).
func TestNewtonOpConsistency(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	rng := rand.New(rand.NewSource(3))
	n := p.DA.NVelDOF()
	state := randVelocity(rng, n)
	nel := p.DA.NElements()
	d6 := make([]float64, 6*NQP*nel)
	eII := make([]float64, NQP*nel)
	StrainRateAtQP(p, state, d6, eII)

	base := NewTensor(p)
	zeroFac := make([]float64, NQP*nel)
	nop := NewNewton(base, d6, zeroFac)
	u := randVelocity(rng, n)
	y1, y2 := la.NewVec(n), la.NewVec(n)
	base.Apply(u, y1)
	nop.Apply(u, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12*(1+math.Abs(y1[i])) {
			t.Fatalf("zero-fac Newton differs at %d", i)
		}
	}
	// Nonzero (negative, shear-thinning-like) factor: symmetric operator.
	fac := make([]float64, NQP*nel)
	for i := range fac {
		if eII[i] > 1e-12 {
			fac[i] = -0.5 * p.Eta[i] / eII[i] // η′ = −η/2ε̇ style
		}
	}
	nop2 := NewNewton(base, d6, fac)
	v := randVelocity(rng, n)
	av, au := la.NewVec(n), la.NewVec(n)
	nop2.Apply(u, au)
	nop2.Apply(v, av)
	d1, d2 := au.Dot(v), av.Dot(u)
	if math.Abs(d1-d2) > 1e-9*(1+math.Abs(d1)) {
		t.Fatalf("Newton operator asymmetric: %v vs %v", d1, d2)
	}
}

// TestNewtonOpMatchesDirectionalDerivative: the Newton operator is the
// derivative of the nonlinear residual: for F(u) built with η(ε̇(u)),
// J(u)·v ≈ (F(u+h v) − F(u−h v)) / 2h.
func TestNewtonOpMatchesDirectionalDerivative(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin)
	p := NewProblem(da, bc)
	nel := da.NElements()
	rng := rand.New(rand.NewSource(9))
	n := p.DA.NVelDOF()
	state := randFreeVelocity(rng, p)
	dir := randFreeVelocity(rng, p)

	// Carreau-like smooth law η = (0.1 + ε̇²)^(-1/4), with analytic
	// η′ = -½ ε̇ (0.1 + ε̇²)^(-5/4).
	etaOf := func(e float64) float64 { return math.Pow(0.1+e*e, -0.25) }
	etaPrime := func(e float64) float64 { return -0.5 * e * math.Pow(0.1+e*e, -1.25) }

	// Residual F(u) = A(η(u))·u (free rows).
	residual := func(u la.Vec, f la.Vec) {
		eII := make([]float64, NQP*nel)
		StrainRateAtQP(p, u, nil, eII)
		for i, e := range eII {
			p.Eta[i] = etaOf(e)
		}
		op := NewTensor(p)
		op.ApplyFreeRows(u, f)
	}

	// Build the Jacobian at `state`.
	d6 := make([]float64, 6*NQP*nel)
	eII := make([]float64, NQP*nel)
	StrainRateAtQP(p, state, d6, eII)
	fac := make([]float64, NQP*nel)
	for i, e := range eII {
		p.Eta[i] = etaOf(e)
		if e > 1e-14 {
			fac[i] = etaPrime(e) / e
		}
	}
	jop := NewNewton(NewTensor(p), d6, fac)
	jv := la.NewVec(n)
	jop.Apply(dir, jv)

	// Central finite difference of the residual.
	h := 1e-6
	up := slices.Clone(state)
	up.AXPY(h, dir)
	um := slices.Clone(state)
	um.AXPY(-h, dir)
	fp, fm := la.NewVec(n), la.NewVec(n)
	residual(up, fp)
	residual(um, fm)
	fd := slices.Clone(fp)
	fd.AXPY(-1, fm)
	fd.Scale(1 / (2 * h))

	// Compare on free rows.
	diff := 0.0
	scale := fd.Norm2()
	for d, m := range p.BC.Mask {
		if !m {
			diff += (jv[d] - fd[d]) * (jv[d] - fd[d])
		}
	}
	diff = math.Sqrt(diff)
	if diff > 1e-5*scale {
		t.Fatalf("Jacobian mismatch: |Jv - FD| = %.3e (scale %.3e)", diff, scale)
	}
}

// TestEvalPressure: evaluating the P1disc basis reproduces a field that is
// linear within each element.
func TestEvalPressure(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	p := NewProblem(da, nil)
	pv := la.NewVec(p.DA.NPresDOF())
	// Set element 0's modes: p(x) = 3 + 2·ψ1.
	pv[0] = 3
	pv[1] = 2
	// Element 0 spans [0,0.5]³; centre x=0.25, half-extent 0.25.
	c := p.Cursor(nil, nil)
	c.Seek(0)
	got := EvalPressure(&c, pv, 0.375, 0.2, 0.3) // ψ1 = (0.375-0.25)/0.25 = 0.5
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("pressure %v, want 4", got)
	}
}
