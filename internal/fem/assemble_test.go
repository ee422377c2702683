package fem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// viscousBatch is one viscousInputs with the matrices it makes: the unit
// the element-matrix tests and the scatter oracle feed the kernel.
type viscousBatch struct {
	viscousInputs
	ae viscousMats
}

// mixedBCProblem is a deformed, variable-η mesh of mx×my×mz elements with
// both kinds of constraint: no-slip (every component) on the bottom, free
// slip (the normal one) on the four sides, the top free.
func mixedBCProblem(mx, my, mz, workers int) *Problem {
	da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.06*math.Sin(math.Pi*y)*math.Sin(math.Pi*z),
			y + 0.05*math.Sin(math.Pi*x),
			z + 0.04*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax)
	bc.SetFaceFunc(da, mesh.ZMin, func(x, y, z float64) (float64, float64, float64) { return 0, 0, 0 })
	p := NewProblem(da, bc)
	p.Workers = workers
	p.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(3 * math.Sin(5*x) * math.Cos(4*y) * math.Sin(3*z))
	}, nil)
	return p
}

// scatterViscous is the oracle of ViscousAssembly: the viscous block
// assembled element by element. The pattern is every node box's dofs for
// the node's three rows; a serial loop in colour order then adds each
// element matrix into the rows of the element's free dofs at its free
// columns, and constrained rows get a unit diagonal. Elements of one
// colour share no node, so every entry sums its elements in colour order.
func scatterViscous(p *Problem) *la.CSR {
	da := p.DA
	nn := da.NNodes()
	a := &la.CSR{NRows: 3 * nn, NCols: 3 * nn, RowPtr: make([]int, 3*nn+1)}
	boxes := make([]vpattern, nn)
	for n := range boxes {
		i, j, k := da.NodeIJK(n)
		v := nodePattern(p, i, j, k)
		boxes[n] = v
		for c := 1; c <= 3; c++ {
			a.RowPtr[3*n+c] = 3 * (v.ihi - v.ilo + 1) * (v.jhi - v.jlo + 1) * (v.khi - v.klo + 1)
		}
	}
	for r := 0; r < a.NRows; r++ {
		a.RowPtr[r+1] += a.RowPtr[r]
	}
	a.ColInd = make([]int, a.RowPtr[a.NRows])
	a.Val = make([]float64, len(a.ColInd))
	for r := 0; r < a.NRows; r++ {
		v, t := boxes[r/3], a.RowPtr[r]
		for kk := v.klo; kk <= v.khi; kk++ {
			for jj := v.jlo; jj <= v.jhi; jj++ {
				for ii := v.ilo; ii <= v.ihi; ii++ {
					cn := 3 * da.NodeID(ii, jj, kk)
					a.ColInd[t], a.ColInd[t+1], a.ColInd[t+2] = cn, cn+1, cn+2
					t += 3
				}
			}
		}
	}
	mask := p.BC.Mask
	geo := p.geom()
	bt := new(viscousBatch)
	p.forEachElementColored(func(e int) {
		bt.load(0, geo, e, p.Eta[NQP*e:NQP*e+NQP])
		bt.matrices(&bt.ae, 1)
		em := p.Emap[27*e : 27*e+27]
		for li, ni := range em {
			v := &boxes[ni]
			nx, ny := v.ihi-v.ilo+1, v.jhi-v.jlo+1
			for ra := 0; ra < 3; ra++ {
				r := 3*int(ni) + ra
				if mask[r] {
					continue
				}
				row := a.Val[a.RowPtr[r]:a.RowPtr[r+1]]
				for ln, nj := range em {
					x, y, z := da.NodeIJK(int(nj))
					o := 3 * (((z-v.klo)*ny+y-v.jlo)*nx + x - v.ilo)
					for b := 0; b < 3; b++ {
						if !mask[3*int(nj)+b] {
							row[o+b] += bt.ae[(3*li+ra)*81+3*ln+b][0]
						}
					}
				}
			}
		}
	})
	for r, m := range mask {
		if m {
			a.Val[a.RowPtr[r]+slices.Index(a.ColInd[a.RowPtr[r]:a.RowPtr[r+1]], r)] = 1
		}
	}
	return a
}

// sameCSR fails unless got has want's pattern and want's values, bit for
// bit.
func sameCSR(t *testing.T, what string, got, want *la.CSR) {
	t.Helper()
	if got.NCols != want.NCols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColInd, want.ColInd) {
		t.Fatalf("%s: pattern differs (nnz %d, want %d)", what, got.NNZ(), want.NNZ())
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			t.Fatalf("%s: entry %d = %x, want %x", what, k, math.Float64bits(got.Val[k]), math.Float64bits(v))
		}
	}
}

// TestViscousAssemblyMatchesScatter: the viscous block built through the
// plane window equals the colour-order scatter bit for bit, pattern and
// values, on one, two and three element layers (Mx·My = 6 leaves the last
// batch of a layer two lanes short) and on 4³, at 1, 2 and 4 workers, in
// both encodings of the element matrix; cold, and refreshed after the
// viscosity and the coordinates change.
func TestViscousAssemblyMatchesScatter(t *testing.T) {
	for _, vector := range []bool{true, false} {
		func() {
			defer setVectorKernel(setVectorKernel(vector))
			for _, sh := range [][3]int{{3, 2, 1}, {3, 2, 2}, {3, 2, 3}, {4, 4, 4}} {
				for _, workers := range []int{1, 2, 4} {
					what := fmt.Sprintf("%dx%dx%d w%d %s", sh[0], sh[1], sh[2], workers, KernelName())
					p := mixedBCProblem(sh[0], sh[1], sh[2], workers)
					va := NewViscousAssembly(p)
					sameCSR(t, what+" cold", va.A, scatterViscous(p))

					rng := rand.New(rand.NewSource(int64(7*sh[2] + workers)))
					for i := range p.Eta {
						p.Eta[i] *= 1 + 0.5*rng.Float64()
					}
					for i := range p.DA.Coords {
						p.DA.Coords[i] += 1e-3 * rng.NormFloat64()
					}
					va.Refresh()
					sameCSR(t, what+" refreshed", va.A, scatterViscous(p))
				}
			}
		}()
	}
}
