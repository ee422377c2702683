package fem

import (
	"ptatin3d/internal/la"
)

// Coupling holds the precomputed element gradient blocks G_e of the mixed
// discretization. G maps pressure to momentum (the J_up block), and the
// divergence block is its transpose: J_pu = Gᵀ (paper Eq. 14). Because the
// P1disc pressure space is element-local, G_e blocks never overlap in the
// pressure index and can be stored densely per element: 81×4 floats.
//
// The pressure basis is defined in *physical* coordinates (paper §II-B):
// ψ₀ = 1, ψ₁ = (x-x_c)/h_x, ψ₂ = (y-y_c)/h_y, ψ₃ = (z-z_c)/h_z, where x_c
// is the element centre (the coordinate of the mid-node) and h the
// half-extent, preserving optimal convergence on deformed meshes.
type Coupling struct {
	P  *Problem
	Ge []float64 // 324 per element: Ge[(3n+a)*4+m]

	// Mapped switches the pressure basis to the reference ("mapped")
	// coordinate system, ψ = {1, ξ, η, ζ} — the alternative the paper
	// explicitly rejects because it loses optimal accuracy on deformed
	// meshes (§II-B). Exposed for the ablation study only.
	Mapped bool
}

// pressureBasisAt evaluates the four P1disc basis functions at the
// physical point (x,y,z) of element e, given the element centre and
// half-extents.
func pressureBasisAt(x, y, z float64, ctr, hinv *[3]float64, psi *[4]float64) {
	psi[0] = 1
	psi[1] = (x - ctr[0]) * hinv[0]
	psi[2] = (y - ctr[1]) * hinv[1]
	psi[3] = (z - ctr[2]) * hinv[2]
}

// elemCenterScale computes the element centre (mid-node coordinates) and
// inverse half-extents from the element coordinates.
func elemCenterScale(xe *[81]float64, ctr, hinv *[3]float64) {
	// Mid node has local index 13 = (1*3+1)*3+1.
	ctr[0], ctr[1], ctr[2] = xe[3*13], xe[3*13+1], xe[3*13+2]
	for c := 0; c < 3; c++ {
		min, max := xe[c], xe[c]
		for n := 1; n < 27; n++ {
			v := xe[3*n+c]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		h := 0.5 * (max - min)
		if h == 0 {
			h = 1
		}
		hinv[c] = 1 / h
	}
}

// NewCoupling computes the gradient blocks for the current mesh geometry.
// Call Setup again after any mesh movement (ALE update).
func NewCoupling(p *Problem) *Coupling {
	c := &Coupling{P: p}
	c.Setup()
	return c
}

// Setup (re)computes the element gradient blocks
// Ge[(n,a)][m] = -∫ ψ_m ∂N_n/∂x_a dV.
func (c *Coupling) Setup() {
	p := c.P
	nel := p.DA.NElements()
	if len(c.Ge) != 324*nel {
		c.Ge = make([]float64, 324*nel)
	}
	geo := p.geom()
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		ge := c.Ge[324*e : 324*e+324]
		for i := range ge {
			ge[i] = 0
		}
		var psi [4]float64
		for q := 0; q < NQP; q++ {
			jinv, detJ := geomAt(geo, e, q)
			w := W3[q] * detJ
			if c.Mapped {
				psi = [4]float64{1, QPRef[q][0], QPRef[q][1], QPRef[q][2]}
			} else {
				var x, y, z float64
				for n := 0; n < 27; n++ {
					nn := N27[q][n]
					x += nn * xe[3*n]
					y += nn * xe[3*n+1]
					z += nn * xe[3*n+2]
				}
				pressureBasisAt(x, y, z, &ctr, &hinv, &psi)
			}
			gq := &G27[q]
			for n := 0; n < 27; n++ {
				g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
				px := g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				py := g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				pz := g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
				for m := 0; m < 4; m++ {
					wp := -w * psi[m]
					ge[(3*n)*4+m] += wp * px
					ge[(3*n+1)*4+m] += wp * py
					ge[(3*n+2)*4+m] += wp * pz
				}
			}
		}
	})
}

// ApplyGAdd accumulates yu += G·pv on the free velocity rows (constrained
// rows are untouched — the caller owns their identity handling).
func (c *Coupling) ApplyGAdd(pv, yu la.Vec) {
	p := c.P
	p.slabApply(nil, false, false, true, yu, func(e int, _, _, ye *[81]float64, _ *kernScratch) {
		ge := c.Ge[324*e : 324*e+324]
		p0, p1, p2, p3 := pv[4*e], pv[4*e+1], pv[4*e+2], pv[4*e+3]
		for i := 0; i < 81; i++ {
			row := ge[4*i : 4*i+4]
			ye[i] = row[0]*p0 + row[1]*p1 + row[2]*p2 + row[3]*p3
		}
	})
}

// ApplyGAddElements accumulates yu += G·pv over the given elements only
// — the rank-local piece of the distributed coupled apply. Like
// ApplyGAdd it writes free velocity rows only; unlike it the loop is
// serial, since in the distributed solve parallelism comes from ranks,
// not the worker pool.
func (c *Coupling) ApplyGAddElements(elems []int, pv, yu la.Vec) {
	p := c.P
	var ye [81]float64
	for _, e := range elems {
		ge := c.Ge[324*e : 324*e+324]
		p0, p1, p2, p3 := pv[4*e], pv[4*e+1], pv[4*e+2], pv[4*e+3]
		for i := 0; i < 81; i++ {
			row := ge[4*i : 4*i+4]
			ye[i] = row[0]*p0 + row[1]*p1 + row[2]*p2 + row[3]*p3
		}
		p.scatterAdd(e, &ye, yu)
	}
}

// ApplyD computes yp = Gᵀ·u treating constrained velocity entries as zero
// (the symmetric-elimination form used inside Krylov applications).
func (c *Coupling) ApplyD(u, yp la.Vec) { c.applyD(u, yp, true) }

// ApplyDRaw computes yp = Gᵀ·u using the full state u, including
// prescribed boundary values (residual evaluation form).
func (c *Coupling) ApplyDRaw(u, yp la.Vec) { c.applyD(u, yp, false) }

// ApplyDElements computes the masked divergence rows yp = Gᵀ·u for the
// given elements only. P1disc pressure dofs are element-local, so no
// halo exchange is needed: each rank fully owns the pressure rows of
// its elements.
func (c *Coupling) ApplyDElements(elems []int, u, yp la.Vec) {
	for _, e := range elems {
		c.applyDElem(e, u, yp, true)
	}
}

func (c *Coupling) applyD(u, yp la.Vec, masked bool) {
	p := c.P
	p.forEachElement(func(e int) {
		c.applyDElem(e, u, yp, masked)
	})
}

func (c *Coupling) applyDElem(e int, u, yp la.Vec, masked bool) {
	s := c.divElem(e, u, masked)
	copy(yp[4*e:4*e+4], s[:])
}

// divElem returns element e's four divergence rows of Gᵀ·u.
func (c *Coupling) divElem(e int, u la.Vec, masked bool) (s [4]float64) {
	p := c.P
	mask := p.BC.Mask
	ge := c.Ge[324*e : 324*e+324]
	em := p.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		for a := 0; a < 3; a++ {
			if masked && mask[d+a] {
				continue
			}
			ua := u[d+a]
			if ua == 0 {
				continue
			}
			row := ge[(3*n+a)*4 : (3*n+a)*4+4]
			s[0] += row[0] * ua
			s[1] += row[1] * ua
			s[2] += row[2] * ua
			s[3] += row[3] * ua
		}
	}
	return s
}

// PressureMass holds the inverted element blocks of the viscosity-scaled
// pressure mass matrix ∫ ψ_i ψ_j / η dV — the spectrally equivalent Schur
// complement preconditioner of paper §III-B. P1disc pressure makes this
// matrix block-diagonal with 4×4 blocks, so its inverse is applied exactly
// element by element.
type PressureMass struct {
	P   *Problem
	inv []float64 // 16 per element, row-major inverse blocks
}

// NewPressureMass builds the inverted viscosity-scaled mass blocks.
func NewPressureMass(p *Problem) *PressureMass {
	m := &PressureMass{P: p}
	m.Setup()
	return m
}

// Setup (re)computes the inverted blocks from the current geometry and
// viscosity.
func (m *PressureMass) Setup() {
	p := m.P
	nel := p.DA.NElements()
	if len(m.inv) != 16*nel {
		m.inv = make([]float64, 16*nel)
	}
	geo := p.geom()
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		blk := la.NewDense(4, 4)
		var psi [4]float64
		for q := 0; q < NQP; q++ {
			_, detJ := geomAt(geo, e, q)
			w := W3[q] * detJ / p.Eta[NQP*e+q]
			var x, y, z float64
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				x += nn * xe[3*n]
				y += nn * xe[3*n+1]
				z += nn * xe[3*n+2]
			}
			pressureBasisAt(x, y, z, &ctr, &hinv, &psi)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					blk.Add(i, j, w*psi[i]*psi[j])
				}
			}
		}
		lu, err := la.Factor(blk)
		if err != nil {
			panic("fem: singular pressure mass block: " + err.Error())
		}
		// Store the explicit inverse columns.
		var ei, col la.Vec = make(la.Vec, 4), make(la.Vec, 4)
		for j := 0; j < 4; j++ {
			ei.Zero()
			ei[j] = 1
			lu.Solve(ei, col)
			for i := 0; i < 4; i++ {
				m.inv[16*e+4*i+j] = col[i]
			}
		}
	})
}

// ApplyInv computes y = M⁻¹·x element-wise.
func (m *PressureMass) ApplyInv(x, y la.Vec) {
	p := m.P
	p.forEachElement(func(e int) {
		m.applyInvElem(e, x, y)
	})
}

// ApplySchur computes the field split's pressure step
// zp = −M_p⁻¹·(rp − D·zu) (paper Eq. 17 with Ŝ = −M_p(1/η)). P1disc
// pressure makes every stage element-local, so it is one kernel per
// element — divergence rows, subtraction, 4×4 inverse block, sign — over
// the listed elements serially (a rank's own: there parallelism comes
// from the ranks) or, with elems nil, over all of them on the worker pool.
func (m *PressureMass) ApplySchur(c *Coupling, elems []int, zu, rp, zp la.Vec) {
	kern := func(e int) {
		t := c.divElem(e, zu, true)
		for i := range t {
			t[i] = rp[4*e+i] - t[i]
		}
		b := m.inv[16*e : 16*e+16]
		for i := 0; i < 4; i++ {
			zp[4*e+i] = -(b[4*i]*t[0] + b[4*i+1]*t[1] + b[4*i+2]*t[2] + b[4*i+3]*t[3])
		}
	}
	if elems == nil {
		m.P.forEachElement(kern)
		return
	}
	for _, e := range elems {
		kern(e)
	}
}

func (m *PressureMass) applyInvElem(e int, x, y la.Vec) {
	b := m.inv[16*e : 16*e+16]
	xe := x[4*e : 4*e+4]
	for i := 0; i < 4; i++ {
		y[4*e+i] = b[4*i]*xe[0] + b[4*i+1]*xe[1] + b[4*i+2]*xe[2] + b[4*i+3]*xe[3]
	}
}
