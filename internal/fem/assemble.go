package fem

import (
	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// elementViscousMatrix computes the 81×81 stiffness matrix of element e
// of the viscous block, A[(i,a)][(n,b)] = Σ_q η·w·detJ·(δ_ab ∇N_i·∇N_n +
// ∂N_i/∂x_b · ∂N_n/∂x_a), into ae (row-major, zeroed first). geo is the
// problem's metric store, eta the element's 27 viscosities.
func elementViscousMatrix(geo []float64, e int, eta []float64, ae []float64) {
	for i := range ae {
		ae[i] = 0
	}
	for q := 0; q < NQP; q++ {
		jinv, detJ := geomAt(geo, e, q)
		s := eta[q] * W3[q] * detJ
		var gn [27][3]float64
		gq := &G27[q]
		for n := 0; n < 27; n++ {
			g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
			gn[n][0] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
			gn[n][1] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
			gn[n][2] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
		}
		for i := 0; i < 27; i++ {
			gi := &gn[i]
			for n := 0; n < 27; n++ {
				gnn := &gn[n]
				dot := s * (gi[0]*gnn[0] + gi[1]*gnn[1] + gi[2]*gnn[2])
				base := (3 * i) * 81
				for a := 0; a < 3; a++ {
					row := base + a*81 + 3*n
					ga := s * gnn[a] // s·∂N_n/∂x_a
					ae[row] += ga * gi[0]
					ae[row+1] += ga * gi[1]
					ae[row+2] += ga * gi[2]
					ae[row+a] += dot
				}
			}
		}
	}
}

// vpattern describes the structured sparsity of a Q2 velocity-block row:
// for each grid node the coupled nodes form a dense box in index space.
type vpattern struct {
	ilo, ihi, jlo, jhi, klo, khi int
}

// nodePattern returns the coupled-node box of Q2 grid node (i,j,k):
// the union of nodes of all elements containing the node.
func nodePattern(p *Problem, i, j, k int) vpattern {
	da := p.DA
	rng := func(idx, m int) (lo, hi int) {
		if idx%2 == 1 {
			e := (idx - 1) / 2
			return 2 * e, 2*e + 2
		}
		elo, ehi := idx/2-1, idx/2
		if elo < 0 {
			elo = 0
		}
		if ehi > m-1 {
			ehi = m - 1
		}
		return 2 * elo, 2*ehi + 2
	}
	var v vpattern
	v.ilo, v.ihi = rng(i, da.Mx)
	v.jlo, v.jhi = rng(j, da.My)
	v.klo, v.khi = rng(k, da.Mz)
	return v
}

// ViscousAssembly caches the analytic sparsity of the viscous block so
// the numeric values can be refreshed in place per relinearization: the
// pattern (RowPtr/ColInd and the per-node coupled boxes) depends only on
// the structured topology and the constraint mask, while the values
// depend on the per-step coefficients and coordinates. Rebuilding only
// the values is what makes per-step assembled levels cheap in the time
// loop.
type ViscousAssembly struct {
	p    *Problem
	pats []vpattern
	// A is the assembled matrix; Refresh overwrites A.Val in place.
	A *la.CSR
}

// NewViscousAssembly derives the sparsity (paper §III-D: rows have
// between 81 and 375 nonzeros, analytically from the structured
// topology — no intermediate hash maps) and leaves the values zero.
func NewViscousAssembly(p *Problem) *ViscousAssembly {
	da := p.DA
	nn := da.NNodes()
	ndof := 3 * nn
	a := &la.CSR{NRows: ndof, NCols: ndof}
	a.RowPtr = make([]int, ndof+1)
	pats := make([]vpattern, nn)
	for n := 0; n < nn; n++ {
		i, j, k := da.NodeIJK(n)
		pats[n] = nodePattern(p, i, j, k)
		v := &pats[n]
		cnt := 3 * (v.ihi - v.ilo + 1) * (v.jhi - v.jlo + 1) * (v.khi - v.klo + 1)
		for c := 0; c < 3; c++ {
			a.RowPtr[3*n+c+1] = cnt
		}
	}
	for r := 0; r < ndof; r++ {
		a.RowPtr[r+1] += a.RowPtr[r]
	}
	a.ColInd = make([]int, a.RowPtr[ndof])
	a.Val = make([]float64, a.RowPtr[ndof])
	// Fill sorted column indices (same box for the 3 component rows).
	par.ForItems(p.Workers, nn, func(n int) { // setup-only: not a hot path
		v := &pats[n]
		pos := a.RowPtr[3*n]
		row := a.ColInd[pos : pos+(a.RowPtr[3*n+1]-a.RowPtr[3*n])]
		t := 0
		for kk := v.klo; kk <= v.khi; kk++ {
			for jj := v.jlo; jj <= v.jhi; jj++ {
				for ii := v.ilo; ii <= v.ihi; ii++ {
					cn := 3 * da.NodeID(ii, jj, kk)
					row[t] = cn
					row[t+1] = cn + 1
					row[t+2] = cn + 2
					t += 3
				}
			}
		}
		copy(a.ColInd[a.RowPtr[3*n+1]:a.RowPtr[3*n+2]], row)
		copy(a.ColInd[a.RowPtr[3*n+2]:a.RowPtr[3*n+3]], row)
	})
	return &ViscousAssembly{p: p, pats: pats, A: a}
}

// Refresh recomputes the values from the problem's current coefficients
// and coordinates into the cached sparsity. The colored element schedule
// touches each stored entry in a fixed per-color order, so the result is
// bit-identical at any worker count and to a from-scratch assembly.
func (va *ViscousAssembly) Refresh() {
	p, a, pats := va.p, va.A, va.pats
	da := p.DA
	mask := p.BC.Mask
	geo := p.geom()
	for i := range a.Val {
		a.Val[i] = 0
	}
	// Numeric pass: colored element loop scatter-adds element matrices.
	// The element matrix scratch is per chunk, not per element.
	p.forEachElementColoredChunk(func(elems []int32) {
		ae := make([]float64, 81*81)
		for _, e32 := range elems {
			e := int(e32)
			elementViscousMatrix(geo, e, p.Eta[NQP*e:NQP*e+NQP], ae)
			em := p.Emap[27*e : 27*e+27]
			for li := 0; li < 27; li++ {
				ni := int(em[li])
				v := &pats[ni]
				nxc := v.ihi - v.ilo + 1
				nyc := v.jhi - v.jlo + 1
				for a2 := 0; a2 < 3; a2++ {
					r := 3*ni + a2
					if mask[r] {
						continue
					}
					base := a.RowPtr[r]
					arow := ae[(3*li+a2)*81:]
					for ln := 0; ln < 27; ln++ {
						nj := int(em[ln])
						ci, cj, ck := da.NodeIJK(nj)
						off := base + (((ck-v.klo)*nyc+(cj-v.jlo))*nxc+(ci-v.ilo))*3
						for b := 0; b < 3; b++ {
							if mask[3*nj+b] {
								continue
							}
							a.Val[off+b] += arow[3*ln+b]
						}
					}
				}
			}
		}
	})
	// Unit diagonal on constrained rows.
	ndof := a.NRows
	for r := 0; r < ndof; r++ {
		if !mask[r] {
			continue
		}
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if a.ColInd[k] == r {
				a.Val[k] = 1
				break
			}
		}
	}
}

// AssembleViscous assembles the viscous block into a CSR matrix with
// symmetric Dirichlet elimination (constrained rows/columns removed, unit
// diagonal on constrained rows).
func AssembleViscous(p *Problem) *la.CSR {
	va := NewViscousAssembly(p)
	va.Refresh()
	return va.A
}

// Diagonal computes the diagonal of the viscous block matrix-free:
// d[(i,a)] = Σ_q η·w·detJ·(|∇N_i|² + (∂N_i/∂x_a)²), with 1 on constrained
// rows. It feeds the Jacobi-preconditioned Chebyshev smoother without ever
// assembling the operator.
func Diagonal(p *Problem, d la.Vec) {
	if len(d) != p.DA.NVelDOF() {
		panic("fem: Diagonal length mismatch")
	}
	geo := p.geom()
	p.slabApply(nil, false, false, false, d, func(e int, _, _, de *[81]float64, _ *kernScratch) {
		eta := p.Eta[NQP*e : NQP*e+NQP]
		*de = [81]float64{}
		for q := 0; q < NQP; q++ {
			jinv, detJ := geomAt(geo, e, q)
			s := eta[q] * W3[q] * detJ
			gq := &G27[q]
			for n := 0; n < 27; n++ {
				g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
				px := g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				py := g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				pz := g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
				norm := px*px + py*py + pz*pz
				de[3*n] += s * (norm + px*px)
				de[3*n+1] += s * (norm + py*py)
				de[3*n+2] += s * (norm + pz*pz)
			}
		}
	})
	for r, m := range p.BC.Mask {
		if m {
			d[r] = 1
		}
	}
}
