package fem_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
)

// apProblem is a deformed, variable-η mesh of mx×my×mz elements with
// both kinds of constraint: no-slip (every component) on the bottom,
// free slip (the normal one) on the four sides, the top free.
func apProblem(mx, my, mz, workers int) *fem.Problem {
	da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.06*math.Sin(math.Pi*y)*math.Sin(math.Pi*z),
			y + 0.05*math.Sin(math.Pi*x),
			z + 0.04*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax)
	bc.SetFaceFunc(da, mesh.ZMin, func(x, y, z float64) (float64, float64, float64) { return 0, 0, 0 })
	p := fem.NewProblem(da, bc)
	p.Workers = workers
	p.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(3 * math.Sin(5*x) * math.Cos(4*y) * math.Sin(3*z))
	}, nil)
	return p
}

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

// sameAP fails unless got is want's pattern with want's values, bit for bit.
func sameAP(t *testing.T, what string, got, want *la.CSR) {
	t.Helper()
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColInd, want.ColInd) {
		t.Fatalf("%s: pattern differs from la.MatMul's (nnz %d, want %d)", what, got.NNZ(), want.NNZ())
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			t.Fatalf("%s: entry %d = %x, la.MatMulNumeric %x", what, k, math.Float64bits(got.Val[k]), math.Float64bits(v))
		}
	}
}

// wantAP is the oracle: the assembled viscous block times pr.
func wantAP(p *fem.Problem, pr *la.CSR) *la.CSR {
	a := fem.AssembleViscous(p)
	c := la.MatMul(a, pr)
	la.MatMulNumeric(a, pr, c, 1)
	return c
}

// TestViscousAPMatchesAssembledProduct: the A·P streamed from element
// matrices equals la.MatMulNumeric(AssembleViscous(p), P, ·) bit for bit,
// and its cold pattern la.MatMul's, on one, two and three element layers
// (Mx·My = 6 leaves the last batch of a layer two lanes short) and on a
// coarsenable mesh with the hierarchy's own prolongation, at 1, 2 and 4
// workers; then again after the viscosity and the coordinates change.
func TestViscousAPMatchesAssembledProduct(t *testing.T) {
	type shape struct{ mx, my, mz int }
	for _, sh := range []shape{{3, 2, 1}, {3, 2, 2}, {3, 2, 3}, {4, 2, 2}} {
		for _, workers := range []int{1, 2, 4} {
			what := fmt.Sprintf("%dx%dx%d w%d", sh.mx, sh.my, sh.mz, workers)
			p := apProblem(sh.mx, sh.my, sh.mz, workers)
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
				sameAP(t, what+" cold", ap.AP, wantAP(p, pr))

				for i := range p.Eta {
					p.Eta[i] *= 1 + 0.5*rng.Float64()
				}
				for i := range p.DA.Coords {
					p.DA.Coords[i] += 1e-3 * rng.NormFloat64()
				}
				ap.Refresh()
				sameAP(t, what+" refreshed", ap.AP, wantAP(p, pr))
			}
		}
	}
}

// TestViscousAPRefusesMismatchedProlongation: P must have a row per
// velocity dof of the problem.
func TestViscousAPRefusesMismatchedProlongation(t *testing.T) {
	p := apProblem(2, 2, 1, 1)
	pr := &la.CSR{NRows: 3, NCols: 3, RowPtr: make([]int, 4)}
	if _, err := fem.NewViscousAP(p, pr); err == nil {
		t.Fatal("a 3-row prolongation was accepted")
	}
}
