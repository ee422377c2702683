package fem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
)

// randomProlongation is a fine-dofs × ncols matrix with one to eight
// columns of positive weight in every row — masked dofs included, unlike
// a hierarchy's P, so that A's masked rows and columns reach the product.
func randomProlongation(rng *rand.Rand, p *fem.Problem, ncols int) *la.CSR {
	n := p.DA.NVelDOF()
	b := la.NewBuilder(n, ncols)
	for r := 0; r < n; r++ {
		for t := 1 + rng.Intn(8); t > 0; t-- {
			b.Add(r, rng.Intn(ncols), 0.125+rng.Float64())
		}
	}
	return b.ToCSR()
}

// wantAP is the oracle: the colour-order scatter of the viscous block
// times pr.
func wantAP(p *fem.Problem, pr *la.CSR) *la.CSR {
	a := fem.ScatterViscous(p)
	c := la.MatMul(a, pr)
	la.MatMulNumeric(a, pr, c, 1)
	return c
}

// TestViscousAPMatchesAssembledProduct: the A·P streamed from element
// matrices equals la.MatMulNumeric(A, P, ·) bit for bit, A the
// colour-order scatter of the viscous block, and its cold pattern
// la.MatMul's, on one, two and three element layers
// (Mx·My = 6 leaves the last batch of a layer two lanes short) and on a
// coarsenable mesh with the hierarchy's own prolongation, at 1, 2 and 4
// workers; then again after the viscosity and the coordinates change.
func TestViscousAPMatchesAssembledProduct(t *testing.T) {
	type shape struct{ mx, my, mz int }
	for _, sh := range []shape{{3, 2, 1}, {3, 2, 2}, {3, 2, 3}, {4, 2, 2}} {
		for _, workers := range []int{1, 2, 4} {
			what := fmt.Sprintf("%dx%dx%d w%d", sh.mx, sh.my, sh.mz, workers)
			p := fem.MixedBCProblem(sh.mx, sh.my, sh.mz, workers)
			rng := rand.New(rand.NewSource(int64(7*sh.mz + workers)))
			type namedP struct {
				name string
				pr   *la.CSR
			}
			prs := []namedP{{"random P", randomProlongation(rng, p, p.DA.NVelDOF()/4)}}
			if sh.mx%2 == 0 && sh.my%2 == 0 && sh.mz%2 == 0 {
				coarse := mg.CoarsenProblems(p, 2, nil)[1]
				prs = append(prs, namedP{"prolongation", mg.NewProlongation(p.DA, coarse.DA, p.BC, coarse.BC).ToCSR()})
			}
			for _, np := range prs {
				what, pr := what+" "+np.name, np.pr
				ap, err := fem.NewViscousAP(p, pr)
				if err != nil {
					t.Fatal(err)
				}
				fem.SameCSR(t, what+" cold", ap.A, wantAP(p, pr))

				for i := range p.Eta {
					p.Eta[i] *= 1 + 0.5*rng.Float64()
				}
				for i := range p.DA.Coords {
					p.DA.Coords[i] += 1e-3 * rng.NormFloat64()
				}
				ap.Refresh()
				fem.SameCSR(t, what+" refreshed", ap.A, wantAP(p, pr))
			}
		}
	}
}

// TestViscousAPRefusesMismatchedProlongation: P must have a row per
// velocity dof of the problem.
func TestViscousAPRefusesMismatchedProlongation(t *testing.T) {
	p := fem.MixedBCProblem(2, 2, 1, 1)
	pr := &la.CSR{NRows: 3, NCols: 3, RowPtr: make([]int, 4)}
	if _, err := fem.NewViscousAP(p, pr); err == nil {
		t.Fatal("a 3-row prolongation was accepted")
	}
}
