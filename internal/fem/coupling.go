package fem

import (
	"fmt"
	"sync"

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
//
// A Problem has one Coupling (Problem.Coupling), derived from its
// geometry store like the store is from DA.Coords.
type Coupling struct {
	P  *Problem
	Ge []float64 // 324 per element: Ge[(3n+a)*4+m]

	mu  sync.Mutex
	gen uint64 // the geometry store's build that Ge was computed from
}

// Coupling returns the problem's gradient/divergence blocks for the mesh
// as it is now. Every caller gets the same *Coupling, whose Ge is
// recomputed in place when the coordinates have moved since the last
// call: one compare of DA.Coords when they have not, so the residual, the
// solver's operators and every rank view share one set of blocks and a
// mesh move needs no announcement. Safe for concurrent use as long as
// nobody moves the mesh meanwhile.
func (p *Problem) Coupling() *Coupling {
	c := &p.coupling
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.P == nil || c.gen != p.validGeometry().gen {
		c.P = p
		c.setup(false)
	}
	return c
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

// setup (re)computes the element gradient blocks
// Ge[(n,a)][m] = -∫ ψ_m ∂N_n/∂x_a dV of the mesh as it is now. mapped
// switches the pressure basis to the reference ("mapped") coordinate
// system, ψ = {1, ξ, η, ζ}: the alternative the paper rejects because it
// loses optimal accuracy on deformed meshes (§II-B), built by the
// ablation test alone.
func (c *Coupling) setup(mapped bool) {
	p := c.P
	nel := p.DA.NElements()
	if len(c.Ge) != 324*nel {
		c.Ge = make([]float64, 324*nel)
	}
	gs := p.validGeometry()
	geo := gs.g
	c.gen = gs.gen
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
			if mapped {
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
	c.P.apply(elemPass{kern: func(e int, _, _, ye *[81]float64, _ *arena) {
		ge := c.Ge[324*e : 324*e+324]
		pe := (*[4]float64)(pv[4*e:])
		for i := range ye {
			ye[i] = gradRow(ge[4*i:4*i+4], pe)
		}
	}}, addRows, nil, yu)
}

// ApplyGD is the coupling half of the coupled matvec in one pass over
// G_e: it accumulates yu += G·pv on the free velocity rows and sets
// yp = D·u = Gᵀ·u with constrained velocity entries as zero — bitwise
// ApplyGAdd(pv, yu) followed by ApplyD(u, yp).
func (c *Coupling) ApplyGD(u, pv, yu, yp la.Vec) {
	c.P.apply(c.gdPass(maskedState, pv, yp), addRows, u, yu)
}

// ApplyGDRaw is ApplyGD of the state as it is, prescribed boundary values
// included: the coupling half of a residual, yu += G·pv on the free
// velocity rows and yp = Gᵀ·u, in one pass over G_e.
func (c *Coupling) ApplyGDRaw(u, pv, yu, yp la.Vec) {
	c.P.apply(c.gdPass(rawState, pv, yp), addRows, u, yu)
}

// ApplyGDElements is ApplyGD over the given elements only, serially and in
// the order given — the rank-local piece of the distributed coupled
// apply, where parallelism comes from the ranks. P1disc pressure dofs are
// element-local, so the rank fully owns the pressure rows of its elements
// and they need no halo exchange.
func (c *Coupling) ApplyGDElements(elems []int, u, pv, yu, yp la.Vec) {
	pass := c.gdPass(maskedState, pv, yp)
	c.P.applyElements(elems, &pass, u, yu)
}

// gdPass is the element loop of ApplyGD and ApplyGDRaw: it reads the
// velocity in the given state, leaves G_e·p in ye and writes the
// element's divergence rows into yp.
func (c *Coupling) gdPass(state gather, pv, yp la.Vec) elemPass {
	return elemPass{state: state, kern: func(e int, ue, _, ye *[81]float64, _ *arena) {
		s := c.gradDiv(e, pv, ue, ye)
		copy(yp[4*e:4*e+4], s[:])
	}}
}

// gradRow is the gradient kernel: row (n,a) of G_e applied to the
// element's four pressure dofs.
func gradRow(row []float64, pe *[4]float64) float64 {
	return row[0]*pe[0] + row[1]*pe[1] + row[2]*pe[2] + row[3]*pe[3]
}

// gradDiv sets ye to element e's G_e·p and returns the element's four
// divergence rows of the gathered ue, both from one read of G_e. The rows
// sum as divRows does, so they are bitwise its rows.
func (c *Coupling) gradDiv(e int, pv la.Vec, ue, ye *[81]float64) (s [4]float64) {
	ge := c.Ge[324*e : 324*e+324]
	pe := (*[4]float64)(pv[4*e:])
	for i, ua := range ue {
		row := ge[4*i : 4*i+4]
		ye[i] = gradRow(row, pe)
		s[0] += row[0] * ua
		s[1] += row[1] * ua
		s[2] += row[2] * ua
		s[3] += row[3] * ua
	}
	return s
}

// ApplyD computes yp = Gᵀ·u treating constrained velocity entries as zero
// (the symmetric-elimination form used inside Krylov applications).
func (c *Coupling) ApplyD(u, yp la.Vec) {
	c.P.forEachElement(func(e int) {
		s := c.divElem(e, u)
		copy(yp[4*e:4*e+4], s[:])
	})
}

// divElem returns element e's four divergence rows of Gᵀ·u, constrained
// entries of u as zero.
func (c *Coupling) divElem(e int, u la.Vec) [4]float64 {
	er := &c.P.runs()[e]
	var ue [81]float64
	gatherRuns(er, u, &ue)
	er.zeroMasked(&ue)
	return c.divRows(e, &ue)
}

// divRows returns element e's four divergence rows of the gathered ue,
// summed over the 81 dofs in ascending order. A constrained (+0) or zero
// entry adds ±0, which leaves the sum as it was: it starts at +0 and so is
// never −0. The rows are therefore bitwise those of a sum that skips such
// entries, for any finite G_e.
func (c *Coupling) divRows(e int, ue *[81]float64) (s [4]float64) {
	ge := c.Ge[324*e : 324*e+324]
	for i, ua := range ue {
		row := ge[4*i : 4*i+4]
		s[0] += row[0] * ua
		s[1] += row[1] * ua
		s[2] += row[2] * ua
		s[3] += row[3] * ua
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

// SingularBlockError reports an element whose 4×4 pressure mass block
// has no inverse — a collapsed element, whose quadrature weights w·detJ/η
// all vanish — the lowest-numbered one when several have none.
type SingularBlockError struct {
	Elem int
	Err  error
}

func (e *SingularBlockError) Error() string {
	return fmt.Sprintf("fem: singular pressure mass block of element %d: %v", e.Elem, e.Err)
}

// NewPressureMass builds the inverted viscosity-scaled mass blocks.
func NewPressureMass(p *Problem) (*PressureMass, error) {
	m := &PressureMass{P: p}
	if err := m.Setup(); err != nil {
		return nil, err
	}
	return m, nil
}

// Setup (re)computes the inverted blocks from the current geometry and
// viscosity. A block without an inverse makes it return a
// *SingularBlockError; the blocks of the other elements are still set.
func (m *PressureMass) Setup() error {
	p := m.P
	nel := p.DA.NElements()
	if len(m.inv) != 16*nel {
		m.inv = make([]float64, 16*nel)
	}
	geo := p.geom()
	var mu sync.Mutex
	var bad *SingularBlockError
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		var blk [16]float64
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
					blk[4*i+j] += w * psi[i] * psi[j]
				}
			}
		}
		// The explicit inverse, by la.Factor's arithmetic on the stack.
		if err := la.Invert4(&blk, (*[16]float64)(m.inv[16*e:16*e+16])); err != nil {
			mu.Lock()
			if bad == nil || e < bad.Elem {
				bad = &SingularBlockError{Elem: e, Err: err}
			}
			mu.Unlock()
		}
	})
	if bad != nil {
		return bad
	}
	return nil
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
		t := c.divElem(e, zu)
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
