package fem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// TestCouplingAdjoint: the gradient and divergence blocks are transposes,
// <G·p, u> == <p, D·u> on the free space.
func TestCouplingAdjoint(t *testing.T) {
	p := testProblem(t, 3, 2, 2, 2)
	c := p.Coupling()
	rng := rand.New(rand.NewSource(1))
	nu, np := p.DA.NVelDOF(), p.DA.NPresDOF()
	for trial := 0; trial < 5; trial++ {
		u := randFreeVelocity(rng, p)
		pv := randVelocity(rng, np)
		gu := la.NewVec(nu)
		c.ApplyGAdd(pv, gu)
		du := la.NewVec(np)
		c.ApplyD(u, du)
		d1 := gu.Dot(u)
		d2 := pv.Dot(du)
		if math.Abs(d1-d2) > 1e-10*(1+math.Abs(d1)) {
			t.Fatalf("trial %d: <Gp,u>=%v != <p,Du>=%v", trial, d1, d2)
		}
	}
}

// TestDivergenceFreeField: a rigid rotation is exactly divergence-free, so
// D·u must vanish on any mesh.
func TestDivergenceFreeField(t *testing.T) {
	da := mesh.New(3, 2, 2, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.04*y, y + 0.05*z*x, z + 0.02*x
	})
	p := NewProblem(da, nil)
	c := p.Coupling()
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < da.NNodes(); n++ {
		x, _, z := da.NodeCoords(n)
		u[3*n] = z // u = (z, 0, -x): rotation about y
		u[3*n+2] = -x
	}
	dp := la.NewVec(p.DA.NPresDOF())
	c.ApplyD(u, dp) // no dof is constrained: u is the state as it is
	if r := dp.NormInf(); r > 1e-11 {
		t.Fatalf("divergence of rotation = %v", r)
	}
}

// TestDivergenceOfLinearField: for u = (x,0,0), ∇·u = 1, so the constant
// pressure mode of D·u integrates -volume per element.
func TestDivergenceOfLinearField(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 2, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.03*math.Sin(y), y, z + 0.02*x
	})
	p := NewProblem(da, nil)
	c := p.Coupling()
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < da.NNodes(); n++ {
		x, _, _ := da.NodeCoords(n)
		u[3*n] = x
	}
	dp := la.NewVec(p.DA.NPresDOF())
	c.ApplyD(u, dp) // no dof is constrained: u is the state as it is
	var sum float64
	for e := 0; e < da.NElements(); e++ {
		sum += dp[4*e]
	}
	var vol float64 // Σ w·detJ over the metric store
	for i, g := 0, p.geom(); i < NQP*da.NElements(); i++ {
		vol += W3[i%NQP] * g[geomStride*i+9]
	}
	if math.Abs(sum+vol) > 1e-10*vol {
		t.Fatalf("Σ constant-mode divergence = %v, want %v", sum, -vol)
	}
}

// TestPressureMassInverse: applying M then M⁻¹ element-wise recovers the
// input; and M⁻¹ is SPD.
func TestPressureMassInverse(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	m, err := NewPressureMass(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	np := p.DA.NPresDOF()
	x := randVelocity(rng, np)
	// Build M·x directly by quadrature.
	mx := la.NewVec(np)
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		var jinv [9]float64
		var psi [4]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(&xe, q, &jinv)
			w := W3[q] * detJ / p.Eta[NQP*e+q]
			var cx, cy, cz float64
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				cx += nn * xe[3*n]
				cy += nn * xe[3*n+1]
				cz += nn * xe[3*n+2]
			}
			pressureBasisAt(cx, cy, cz, &ctr, &hinv, &psi)
			var dot float64
			for j := 0; j < 4; j++ {
				dot += psi[j] * x[4*e+j]
			}
			for i := 0; i < 4; i++ {
				mx[4*e+i] += w * psi[i] * dot
			}
		}
	})
	y := la.NewVec(np)
	m.ApplyInv(mx, y)
	for i := range y {
		if math.Abs(y[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
			t.Fatalf("M⁻¹Mx != x at %d: %v vs %v", i, y[i], x[i])
		}
	}
	// SPD: xᵀM⁻¹x > 0.
	z := la.NewVec(np)
	m.ApplyInv(x, z)
	if e := z.Dot(x); e <= 0 {
		t.Fatalf("M⁻¹ not positive: %v", e)
	}
}

// TestMomentumRHSTotalForce: the total z-force equals -∫ρ g_z dV when no
// rows are constrained (Σ_i N_i = 1).
func TestMomentumRHSTotalForce(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	p := NewProblem(da, nil)
	p.Gravity = [3]float64{0, 0, -9.8}
	p.SetCoefficientsFunc(nil, func(x, y, z float64) float64 { return 1.2 })
	b := la.NewVec(p.DA.NVelDOF())
	MomentumRHS(p, b)
	var fz float64
	for n := 0; n < da.NNodes(); n++ {
		fz += b[3*n+2]
	}
	want := -9.8 * 1.2 * 1.0 // ∫ρ·g_z over the unit volume: downward pull
	if math.Abs(fz-want) > 1e-10 {
		t.Fatalf("total z load = %v, want %v", fz, want)
	}
}

// TestCouplingPressureNullForce: a constant pressure field exerts zero net
// force on unconstrained interior nodes only through boundary terms; more
// useful invariant: for constant p and a divergence-free test function the
// work <G·p, u> vanishes.
func TestCouplingPressureNullForce(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	p := NewProblem(da, nil)
	c := p.Coupling()
	pv := la.NewVec(p.DA.NPresDOF())
	for e := 0; e < da.NElements(); e++ {
		pv[4*e] = 3.5 // constant mode only
	}
	gu := la.NewVec(p.DA.NVelDOF())
	c.ApplyGAdd(pv, gu)
	// Divergence-free rotation u = (y,-x,0).
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < da.NNodes(); n++ {
		x, y, _ := da.NodeCoords(n)
		u[3*n] = y
		u[3*n+1] = -x
	}
	if w := gu.Dot(u); math.Abs(w) > 1e-10 {
		t.Fatalf("<G·const, div-free u> = %v", w)
	}
}

// collapseElement flattens element e of p onto the plane z = 0: ∂z/∂ξ is
// exactly zero, so is every quadrature weight of the element, while its
// neighbours keep a positive Jacobian at their quadrature points.
func collapseElement(p *Problem, e int) {
	var nodes [27]int32
	p.DA.ElemNodes(e, &nodes)
	for _, n := range nodes {
		p.DA.Coords[3*int(n)+2] = 0
	}
}

// TestPressureMassSingularBlockError: a collapsed element makes
// NewPressureMass and Setup return a *SingularBlockError naming it (the
// lowest of two, at any worker count), instead of panicking.
func TestPressureMassSingularBlockError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			p := testProblem(t, 4, 3, 3, workers)
			m, err := NewPressureMass(p)
			if err != nil {
				t.Fatalf("intact mesh: %v", err)
			}
			lo, hi := p.DA.ElemID(1, 1, 0), p.DA.ElemID(3, 1, 0)
			collapseElement(p, hi)
			collapseElement(p, lo)
			var sb *SingularBlockError
			if err := m.Setup(); !errors.As(err, &sb) || sb.Elem != lo {
				t.Fatalf("Setup: got %v, want a *SingularBlockError of element %d", err, lo)
			}
			if _, err := NewPressureMass(p); !errors.As(err, &sb) || sb.Elem != lo {
				t.Fatalf("NewPressureMass: got %v, want a *SingularBlockError of element %d", err, lo)
			}
		})
	}
}
