package fem

import (
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/par"
)

// Problem holds the discrete data shared by every implementation of the
// viscous-block operator and by the coupling/pressure blocks: the mesh,
// the element→node gather table (the explicit E_e of paper §III-D),
// Dirichlet constraints, and the per-quadrature-point effective viscosity
// and density (buoyancy) coefficients.
type Problem struct {
	DA      *mesh.DA
	Emap    []int32 // 27*NElements node indices
	BC      *mesh.BC
	Workers int // worker goroutines ("cores") for element/row parallel loops

	// Eta and Rho are the effective viscosity and density evaluated at the
	// 27 quadrature points of each element: index NQP*e + q.
	Eta []float64
	Rho []float64

	// Gravity is the body-force acceleration vector g; f = ρ·g (paper §II-A).
	Gravity [3]float64

	// colorOff/colorElems partition the elements into 8 parity classes.
	// Elements of the same class share no nodes, so element loops within a
	// class can scatter to the global residual concurrently without
	// synchronization. The assembly numeric pass runs on this schedule; the
	// apply paths use the slab partition below (slab.go).
	colorOff   [9]int
	colorElems []int32

	slabState
	geometry geometry
}

// NewProblem builds a Problem on the given mesh with the given constraints.
// Coefficients are initialized to η=1, ρ=0; use SetCoefficients* to fill
// them.
func NewProblem(da *mesh.DA, bc *mesh.BC) *Problem {
	if bc == nil {
		bc = mesh.NewBC(da)
	}
	p := &Problem{
		DA:      da,
		Emap:    da.BuildElementMap(),
		BC:      bc,
		Workers: 1,
		Eta:     make([]float64, NQP*da.NElements()),
		Rho:     make([]float64, NQP*da.NElements()),
	}
	for i := range p.Eta {
		p.Eta[i] = 1
	}
	p.buildColors()
	return p
}

// buildColors groups elements by the parity of their (ei,ej,ek) indices.
func (p *Problem) buildColors() {
	da := p.DA
	nel := da.NElements()
	var counts [8]int
	colorOf := func(e int) int {
		ei, ej, ek := da.ElemIJK(e)
		return (ek%2)<<2 | (ej%2)<<1 | ei%2
	}
	for e := 0; e < nel; e++ {
		counts[colorOf(e)]++
	}
	p.colorOff[0] = 0
	for c := 0; c < 8; c++ {
		p.colorOff[c+1] = p.colorOff[c] + counts[c]
	}
	p.colorElems = make([]int32, nel)
	var next [8]int
	for c := 0; c < 8; c++ {
		next[c] = p.colorOff[c]
	}
	for e := 0; e < nel; e++ {
		c := colorOf(e)
		p.colorElems[next[c]] = int32(e)
		next[c]++
	}
}

// forEachElementColoredChunk runs body over all elements using the
// 8-color schedule: colors run sequentially, chunks within a color
// concurrently — so body may scatter-add to node-indexed arrays without
// atomics — and body receives each chunk's element list, so loops needing
// per-element scratch allocate it once per chunk.
func (p *Problem) forEachElementColoredChunk(body func(elems []int32)) {
	for c := 0; c < 8; c++ {
		elems := p.colorElems[p.colorOff[c]:p.colorOff[c+1]]
		par.For(p.Workers, len(elems), func(lo, hi int) {
			body(elems[lo:hi])
		})
	}
}

// forEachElement runs body(e) over all elements in parallel with no
// scatter protection (used for loops writing only element-local data).
func (p *Problem) forEachElement(body func(e int)) {
	par.For(p.Workers, p.DA.NElements(), func(lo, hi int) {
		for e := lo; e < hi; e++ {
			body(e)
		}
	})
}

// gatherCoords fills xe (27 nodes × 3, node-major) with the coordinates of
// element e's nodes.
func (p *Problem) gatherCoords(e int, xe *[81]float64) {
	em := p.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		c := 3 * int(em[n])
		xe[3*n] = p.DA.Coords[c]
		xe[3*n+1] = p.DA.Coords[c+1]
		xe[3*n+2] = p.DA.Coords[c+2]
	}
}

// gatherVec fills ue with the element-local values of the velocity vector
// u, zeroing constrained dofs (symmetric Dirichlet elimination).
func (p *Problem) gatherVec(e int, u la.Vec, ue *[81]float64) {
	em := p.Emap[27*e : 27*e+27]
	mask := p.BC.Mask
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		for c := 0; c < 3; c++ {
			if mask[d+c] {
				ue[3*n+c] = 0
			} else {
				ue[3*n+c] = u[d+c]
			}
		}
	}
}

// scatterAdd accumulates element-local values ye into the global vector y,
// skipping constrained rows.
func (p *Problem) scatterAdd(e int, ye *[81]float64, y la.Vec) {
	em := p.Emap[27*e : 27*e+27]
	mask := p.BC.Mask
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		for c := 0; c < 3; c++ {
			if !mask[d+c] {
				y[d+c] += ye[3*n+c]
			}
		}
	}
}

// SetCoefficientsFunc fills the quadrature-point viscosity and density
// from pointwise functions of physical position. Pass nil to leave a
// field unchanged.
func (p *Problem) SetCoefficientsFunc(eta, rho func(x, y, z float64) float64) {
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		for q := 0; q < NQP; q++ {
			var x, y, z float64
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				x += nn * xe[3*n]
				y += nn * xe[3*n+1]
				z += nn * xe[3*n+2]
			}
			if eta != nil {
				p.Eta[NQP*e+q] = eta(x, y, z)
			}
			if rho != nil {
				p.Rho[NQP*e+q] = rho(x, y, z)
			}
		}
	})
}

// SetCoefficientsVertex fills the quadrature-point viscosity and density
// by trilinear interpolation of fields defined on the element corner
// vertex grid — the projection target of the material-point method
// (paper Eq. 13). Pass nil to leave a field unchanged.
func (p *Problem) SetCoefficientsVertex(etaV, rhoV []float64) {
	da := p.DA
	if etaV != nil && len(etaV) != da.NVertices() {
		panic("fem: vertex viscosity field length mismatch")
	}
	if rhoV != nil && len(rhoV) != da.NVertices() {
		panic("fem: vertex density field length mismatch")
	}
	p.forEachElement(func(e int) {
		var vs [8]int32
		da.ElemVertices(e, &vs)
		for q := 0; q < NQP; q++ {
			if etaV != nil {
				var s float64
				for c := 0; c < 8; c++ {
					s += N27Q1[q][c] * etaV[vs[c]]
				}
				p.Eta[NQP*e+q] = s
			}
			if rhoV != nil {
				var s float64
				for c := 0; c < 8; c++ {
					s += N27Q1[q][c] * rhoV[vs[c]]
				}
				p.Rho[NQP*e+q] = s
			}
		}
	})
}

// jacobianAt computes the Jacobian ∂x/∂ξ, its inverse and determinant at
// quadrature point q given element coordinates xe. Jinv[d][m] = ∂ξ_d/∂x_m.
func jacobianAt(xe *[81]float64, q int, jinv *[9]float64) (detJ float64) {
	var jmat [9]float64
	g := &G27[q]
	for n := 0; n < 27; n++ {
		gx, gy, gz := g[n][0], g[n][1], g[n][2]
		x, y, z := xe[3*n], xe[3*n+1], xe[3*n+2]
		jmat[0] += x * gx // ∂x/∂ξ0
		jmat[1] += y * gx // row d=0: ∂x_m/∂ξ0
		jmat[2] += z * gx
		jmat[3] += x * gy
		jmat[4] += y * gy
		jmat[5] += z * gy
		jmat[6] += x * gz
		jmat[7] += y * gz
		jmat[8] += z * gz
	}
	// jmat[d*3+m] = ∂x_m/∂ξ_d; its inverse jinv[m*3+d] = ... we want
	// jinv indexed as [d][m] = ∂ξ_d/∂x_m, which is the matrix inverse of
	// jmat viewed as J[d][m]=∂x_m/∂ξ_d transposed. Invert3 gives
	// inv such that jmat·inv = I with row-major interpretation
	// jmat[r][c]: Σ_c jmat[r*3+c] inv[c*3+s] = δ_rs, i.e.
	// Σ_m (∂x_m/∂ξ_r)(inv[m][s]) = δ_rs so inv[m][s] = ∂ξ_s/∂x_m.
	var inv [9]float64
	detJ = la.Invert3(&jmat, &inv)
	// Transpose into jinv[d][m] = ∂ξ_d/∂x_m = inv[m][d].
	jinv[0], jinv[1], jinv[2] = inv[0], inv[3], inv[6]
	jinv[3], jinv[4], jinv[5] = inv[1], inv[4], inv[7]
	jinv[6], jinv[7], jinv[8] = inv[2], inv[5], inv[8]
	return detJ
}

// VertexFieldFromFunc samples a pointwise coefficient function at the
// element corner vertices, producing the vertex-grid field that
// SetCoefficientsVertex and the multigrid coefficient coarseners consume.
// It is the function-defined stand-in for the material-point projection
// (paper Eq. 12) used by analytically specified benchmarks.
func VertexFieldFromFunc(da *mesh.DA, f func(x, y, z float64) float64) []float64 {
	out := make([]float64, da.NVertices())
	for v := range out {
		i, j, k := da.VertexIJK(v)
		x, y, z := da.NodeCoords(da.VertexNode(i, j, k))
		out[v] = f(x, y, z)
	}
	return out
}

// VertexToQP interpolates a vertex-grid scalar field to all quadrature
// points (Eq. 13) into out (length NQP·NElements), without touching the
// problem's coefficient arrays. The Newton linearization uses it to carry
// the projected η′/ε̇ factor to quadrature points.
func VertexToQP(p *Problem, vertexField []float64, out []float64) {
	da := p.DA
	if len(vertexField) != da.NVertices() || len(out) != NQP*da.NElements() {
		panic("fem: VertexToQP length mismatch")
	}
	p.forEachElement(func(e int) {
		var vs [8]int32
		da.ElemVertices(e, &vs)
		for q := 0; q < NQP; q++ {
			var s float64
			for c := 0; c < 8; c++ {
				s += N27Q1[q][c] * vertexField[vs[c]]
			}
			out[NQP*e+q] = s
		}
	})
}
