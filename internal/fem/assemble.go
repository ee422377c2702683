package fem

import (
	"sync"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// viscousLanes is the number of elements one call of the element-matrix
// kernel computes: the float64 lanes of an AVX2 register.
const viscousLanes = 4

// viscousInputs holds what the stiffness matrices of the viscous block of
// up to viscousLanes elements are computed from, element k in lane k of
// every entry: the layout of the AVX2 encoding (tensor_amd64.s), which
// computes every lane at once, while the Go body computes one lane at a
// time.
type viscousInputs struct {
	// g[3·(n·NQP+q)+c] is ∂N_n/∂x_c at quadrature point q, s[q] is
	// η·w·detJ there.
	g [3 * 27 * NQP][viscousLanes]float64
	s [NQP][viscousLanes]float64
}

// viscousMats holds the matrices the inputs of one viscousInputs make,
// lane by lane: entry [81·r+c][k] is entry (r, c) of element k's 81×81
// matrix, rows and columns ordered (node, component).
type viscousMats [81 * 81][viscousLanes]float64

// viscousBatch is one viscousInputs with the matrices it makes.
type viscousBatch struct {
	viscousInputs
	ae viscousMats
}

// viscousBatches recycles the batches (~280 KB each) across the chunks of
// every refresh.
var viscousBatches = sync.Pool{New: func() any { return new(viscousBatch) }}

// load fills lane with element e's inputs: geo is the problem's metric
// store, eta the element's 27 viscosities.
func (b *viscousInputs) load(lane int, geo []float64, e int, eta []float64) {
	for q := 0; q < NQP; q++ {
		jinv, detJ := geomAt(geo, e, q)
		b.s[q][lane] = eta[q] * W3[q] * detJ
		gq := &G27[q]
		for n := 0; n < 27; n++ {
			g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
			g := b.g[3*(n*NQP+q):]
			g[0][lane] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
			g[1][lane] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
			g[2][lane] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
		}
	}
}

// matrixGo is the Go body of the element matrix, one lane:
// A[(i,a)][(n,b)] = Σ_q η·w·detJ·(δ_ab ∇N_i·∇N_n + ∂N_i/∂x_b · ∂N_n/∂x_a).
// Each 3×3 block of a node pair (i, n) sums its quadrature points in
// order in nine accumulators: at point q, entry (a, b) adds
// (s·∂N_n/∂x_a)·∂N_i/∂x_b, then the diagonal entries add s·(∇N_i·∇N_n).
func (b *viscousInputs) matrixGo(ae *viscousMats, lane int) {
	g, s := &b.g, &b.s
	for i := 0; i < 27; i++ {
		for n := 0; n < 27; n++ {
			var a00, a01, a02, a10, a11, a12, a20, a21, a22 float64
			gi, gn := g[3*NQP*i:3*NQP*i+3*NQP], g[3*NQP*n:3*NQP*n+3*NQP]
			for q := 0; q < NQP; q++ {
				sq := s[q][lane]
				i0, i1, i2 := gi[3*q][lane], gi[3*q+1][lane], gi[3*q+2][lane]
				n0, n1, n2 := gn[3*q][lane], gn[3*q+1][lane], gn[3*q+2][lane]
				dot := sq * (i0*n0 + i1*n1 + i2*n2)
				ga := sq * n0
				a00 += ga * i0
				a01 += ga * i1
				a02 += ga * i2
				a00 += dot
				ga = sq * n1
				a10 += ga * i0
				a11 += ga * i1
				a12 += ga * i2
				a11 += dot
				ga = sq * n2
				a20 += ga * i0
				a21 += ga * i1
				a22 += ga * i2
				a22 += dot
			}
			r := ae[81*3*i+3*n:]
			r[0][lane], r[1][lane], r[2][lane] = a00, a01, a02
			r[81][lane], r[82][lane], r[83][lane] = a10, a11, a12
			r[162][lane], r[163][lane], r[164][lane] = a20, a21, a22
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
	// Numeric pass: colored element loop scatter-adds element matrices,
	// viscousLanes elements per kernel call. Elements of one color share
	// no node, so the order within a chunk does not matter.
	p.forEachElementColoredChunk(func(elems []int32) {
		bt := viscousBatches.Get().(*viscousBatch)
		defer viscousBatches.Put(bt)
		for len(elems) > 0 {
			group := elems[:min(viscousLanes, len(elems))]
			elems = elems[len(group):]
			for lane, e := range group {
				bt.load(lane, geo, int(e), p.Eta[NQP*int(e):NQP*int(e)+NQP])
			}
			bt.matrices(&bt.ae, len(group))
			for lane, e32 := range group {
				e := int(e32)
				em := p.Emap[27*e : 27*e+27]
				var ijk [27][3]int
				for ln, nj := range em {
					ijk[ln][0], ijk[ln][1], ijk[ln][2] = da.NodeIJK(int(nj))
				}
				for li := 0; li < 27; li++ {
					ni := int(em[li])
					v := &pats[ni]
					nxc := v.ihi - v.ilo + 1
					nyc := v.jhi - v.jlo + 1
					// Where node ln's three columns sit in the rows of node li.
					var off [27]int
					for ln, c := range &ijk {
						off[ln] = (((c[2]-v.klo)*nyc+(c[1]-v.jlo))*nxc + (c[0] - v.ilo)) * 3
					}
					for a2 := 0; a2 < 3; a2++ {
						r := 3*ni + a2
						if mask[r] {
							continue
						}
						val := a.Val[a.RowPtr[r]:a.RowPtr[r+1]]
						arow := bt.ae[(3*li+a2)*81 : (3*li+a2)*81+81]
						for ln, o := range &off {
							nj := 3 * int(em[ln])
							for b := 0; b < 3; b++ {
								if !mask[nj+b] {
									val[o+b] += arow[3*ln+b][lane]
								}
							}
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
