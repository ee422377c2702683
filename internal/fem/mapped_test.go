package fem

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// TestMappedVsPhysicalPressureBasis is the §II-B ablation: on a deformed
// mesh the physical-coordinate P1disc basis represents linear pressure
// fields exactly (preserving the optimal accuracy of Q2–P1), while the
// "mapped" (reference-coordinate) basis cannot — its span contains the
// triquadratic images of {1,ξ,η,ζ}, not physical linears.
func TestMappedVsPhysicalPressureBasis(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.1*math.Sin(math.Pi*y)*math.Sin(math.Pi*z),
			y + 0.08*math.Sin(math.Pi*x),
			z + 0.06*x*y
	})
	p := NewProblem(da, nil)
	f := func(x, y, z float64) float64 { return 1 + 2*x - y + 0.5*z }

	// Best-approximation error of f in the element pressure space,
	// measured at the quadrature points after an L2 fit.
	fitError := func(mapped bool) float64 {
		worst := 0.0
		for e := 0; e < da.NElements(); e++ {
			var xe [81]float64
			p.gatherCoords(e, &xe)
			var ctr, hinv [3]float64
			elemCenterScale(&xe, &ctr, &hinv)
			// Normal equations by quadrature.
			m := la.NewDense(4, 4)
			rhs := la.NewVec(4)
			var jinv [9]float64
			psiAt := func(q int, x, y, z float64) [4]float64 {
				if mapped {
					return [4]float64{1, QPRef[q][0], QPRef[q][1], QPRef[q][2]}
				}
				var ps [4]float64
				pressureBasisAt(x, y, z, &ctr, &hinv, &ps)
				return ps
			}
			coords := make([][3]float64, NQP)
			for q := 0; q < NQP; q++ {
				detJ := jacobianAt(&xe, q, &jinv)
				w := W3[q] * detJ
				var x, y, z float64
				for n := 0; n < 27; n++ {
					nn := N27[q][n]
					x += nn * xe[3*n]
					y += nn * xe[3*n+1]
					z += nn * xe[3*n+2]
				}
				coords[q] = [3]float64{x, y, z}
				ps := psiAt(q, x, y, z)
				for i := 0; i < 4; i++ {
					for j := 0; j < 4; j++ {
						m.Add(i, j, w*ps[i]*ps[j])
					}
					rhs[i] += w * ps[i] * f(x, y, z)
				}
			}
			lu, err := la.Factor(m)
			if err != nil {
				t.Fatal(err)
			}
			c := la.NewVec(4)
			lu.Solve(rhs, c)
			for q := 0; q < NQP; q++ {
				ps := psiAt(q, coords[q][0], coords[q][1], coords[q][2])
				got := c[0]*ps[0] + c[1]*ps[1] + c[2]*ps[2] + c[3]*ps[3]
				if e := math.Abs(got - f(coords[q][0], coords[q][1], coords[q][2])); e > worst {
					worst = e
				}
			}
		}
		return worst
	}

	physErr := fitError(false)
	mapErr := fitError(true)
	if physErr > 1e-10 {
		t.Fatalf("physical basis should represent linears exactly: err %e", physErr)
	}
	if mapErr < 100*physErr || mapErr < 1e-4 {
		t.Fatalf("mapped basis unexpectedly accurate: %e (physical %e)", mapErr, physErr)
	}
}

// TestMappedCouplingStaysAdjoint: the gradient/divergence blocks remain
// exact transposes in mapped mode (the ablation changes accuracy, not the
// algebraic structure).
func TestMappedCouplingStaysAdjoint(t *testing.T) {
	p := testProblem(t, 2, 2, 2, 1)
	c := &Coupling{P: p}
	c.setup(true)
	rng := rand.New(rand.NewSource(2))
	nu, np := p.DA.NVelDOF(), p.DA.NPresDOF()
	u := randFreeVelocity(rng, p)
	pv := randVelocity(rng, np)
	gu := la.NewVec(nu)
	c.ApplyGAdd(pv, gu)
	du := la.NewVec(np)
	c.ApplyD(u, du)
	d1, d2 := gu.Dot(u), pv.Dot(du)
	if math.Abs(d1-d2) > 1e-10*(1+math.Abs(d1)) {
		t.Fatalf("mapped coupling not adjoint: %v vs %v", d1, d2)
	}
}
