package fem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// conformanceTol is the agreement bound between operator variants, scaled
// by the result magnitude (ISSUE acceptance: 1e-10).
const conformanceTol = 1e-10

// randomConformanceProblem builds a randomized deformed mesh with random
// smooth coefficients and a random Dirichlet constraint pattern — the
// property-test analogue of testProblem.
func randomConformanceProblem(t testing.TB, rng *rand.Rand) *Problem {
	t.Helper()
	mx, my, mz := 2+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(3)
	da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
	a1 := 0.02 + 0.05*rng.Float64()
	a2 := 0.02 + 0.05*rng.Float64()
	a3 := 0.02 + 0.04*rng.Float64()
	p1 := 2 * math.Pi * rng.Float64()
	p2 := 2 * math.Pi * rng.Float64()
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + a1*math.Sin(math.Pi*y+p1)*math.Sin(math.Pi*z),
			y + a2*math.Sin(math.Pi*x+p2),
			z + a3*x*y
	})
	bc := mesh.NewBC(da)
	// Random constraint pattern: each face independently unconstrained,
	// free-slip (normal component), or no-slip (all components).
	faces := []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax}
	normal := []int{0, 0, 1, 1, 2, 2}
	constrained := 0
	for i, f := range faces {
		switch rng.Intn(3) {
		case 1:
			bc.SetFaceComponent(da, f, normal[i], 0)
			constrained++
		case 2:
			for c := 0; c < 3; c++ {
				bc.SetFaceComponent(da, f, c, 0)
			}
			constrained++
		}
	}
	if constrained == 0 {
		// Keep the operator nonsingular on at least one face.
		bc.SetFaceComponent(da, mesh.ZMin, 2, 0)
	}
	p := NewProblem(da, bc)
	c1 := 1 + 3*rng.Float64()
	w1 := 1 + 5*rng.Float64()
	w2 := 1 + 5*rng.Float64()
	p.SetCoefficientsFunc(
		func(x, y, z float64) float64 {
			return math.Exp(c1 * math.Sin(w1*x) * math.Cos(w2*y) * math.Sin(2*z))
		},
		func(x, y, z float64) float64 { return 1 + 0.3*z },
	)
	return p
}

// TestOperatorConformanceRandomized is the property-style Table-I
// conformance test: on randomized deformed meshes with random coefficient
// fields and random Dirichlet patterns, every viscous-operator variant
// (MF, Tensor, TensorC, Asm) applied to shared random vectors must agree
// to conformanceTol × the result magnitude, with identical Dirichlet-row
// identity behaviour.
func TestOperatorConformanceRandomized(t *testing.T) {
	seeds := []int64{101, 202, 303, 404, 505, 606}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := randomConformanceProblem(t, rng)
			n := p.DA.NVelDOF()

			variants := []struct {
				name string
				op   Operator
			}{
				{"MF", NewMF(p)},
				{"Tensor", NewTensor(p)},
				{"TensorC", NewResident(p, false)},
				{"Asm", krylov.CSROp{A: AssembleViscous(p)}},
			}

			for trial := 0; trial < 3; trial++ {
				u := randVelocity(rng, n)
				ys := make([]la.Vec, len(variants))
				for vi, v := range variants {
					ys[vi] = la.NewVec(n)
					v.op.Apply(u, ys[vi])
				}
				scale := ys[0].NormInf()
				if scale == 0 {
					t.Fatal("degenerate problem: zero operator result")
				}
				for vi := 1; vi < len(variants); vi++ {
					for i := 0; i < n; i++ {
						if d := math.Abs(ys[vi][i] - ys[0][i]); d > conformanceTol*scale {
							t.Fatalf("trial %d: %s vs %s mismatch at dof %d: %v vs %v (|Δ|=%.3e, tol %.3e)",
								trial, variants[vi].name, variants[0].name, i,
								ys[vi][i], ys[0][i], d, conformanceTol*scale)
						}
					}
				}
				// Dirichlet rows must act as the identity in every variant.
				for vi, v := range variants {
					for d, msk := range p.BC.Mask {
						if msk && ys[vi][d] != u[d] {
							t.Fatalf("%s: constrained row %d not identity: y=%v u=%v",
								v.name, d, ys[vi][d], u[d])
						}
					}
				}
				// Perturbing constrained entries must leave free rows of
				// every variant untouched (columns dropped symmetrically).
				u2 := slices.Clone(u)
				for d, msk := range p.BC.Mask {
					if msk {
						u2[d] += rng.NormFloat64()
					}
				}
				for vi, v := range variants {
					y2 := la.NewVec(n)
					v.op.Apply(u2, y2)
					for d, msk := range p.BC.Mask {
						if !msk && y2[d] != ys[vi][d] {
							t.Fatalf("%s: free row %d influenced by constrained column", v.name, d)
						}
					}
				}
			}
		})
	}
}
