package fem

import (
	"math"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// Resident is the stored-coefficient tensor operator restructured for
// cache-blocked smoothing — the "Tensor C" variant of Table I: the
// combined metric+coefficient tensor (∇ξ)ᵀ(ωη)(∇ξ) is precomputed at
// every quadrature point at Setup, removing the Jacobian inversion from
// the apply at the cost of streaming 15 floats per quadrature point. The
// paper stores 21 rank-4 entries; we store the equivalent isotropic
// factorization sM (6 entries of the scaled metric Gram matrix, packed
// symmetric order 00,01,02,11,12,22) plus √s·K (9 entries of the scaled
// inverse Jacobian, row-major, s = η·w·detJ), which reproduces the same
// action (see DESIGN.md, "Substitutions (paper → this repo)"). It is one
// more kernel of the Problem's block schedule: Apply is the blocks plus
// the ascending-slab merge, and the blocked Chebyshev smoother drives the
// same per-block item (applyBlock) slab by slab, so both produce
// bit-identical sums.
//
// F32 selects the single-precision variant the kernel study times beside
// the float64 one (op.TensorF32; no solver runs it): coefficients are
// computed in float64 and rounded once to float32, and the element kernel
// runs in float32 (state rounded at gather, result widened at scatter).
// Global vectors and the owner-computes scatter stay float64 on both
// paths, so the f32 operator is a small perturbation of the f64 one.
type Resident struct {
	P   *Problem
	F32 bool

	c64 []float64
	c32 []float32

	pass elemPass // the kernel and its masked-state gather, made once
}

// NewResident builds a stored-coefficient resident operator; Setup must
// be called again whenever the mesh geometry or viscosity changes.
func NewResident(p *Problem, f32 bool) *Resident {
	r := &Resident{P: p, F32: f32}
	r.pass = elemPass{kern: r.kernel, state: maskedState}
	r.Setup()
	return r
}

// Setup (re)computes the stored per-quadrature-point tensors, always in
// float64, rounding once to float32 on the single-precision variant.
func (r *Resident) Setup() {
	p := r.P
	nel := p.DA.NElements()
	if r.F32 {
		if len(r.c32) != 15*NQP*nel {
			r.c32 = make([]float32, 15*NQP*nel)
			r.c64 = nil
		}
	} else {
		if len(r.c64) != 15*NQP*nel {
			r.c64 = make([]float64, 15*NQP*nel)
			r.c32 = nil
		}
	}
	geo := p.geom()
	p.forEachElement(func(e int) {
		for q := 0; q < NQP; q++ {
			jinv, detJ := geomAt(geo, e, q)
			s := p.Eta[NQP*e+q] * W3[q] * detJ
			var c [15]float64
			// Packed scaled metric sM[d][e] = s·Σ_m K[d][m]K[e][m].
			idx := 0
			for d := 0; d < 3; d++ {
				for dd := d; dd < 3; dd++ {
					c[idx] = s * (jinv[d*3]*jinv[dd*3] + jinv[d*3+1]*jinv[dd*3+1] + jinv[d*3+2]*jinv[dd*3+2])
					idx++
				}
			}
			sq := math.Sqrt(s)
			for i := 0; i < 9; i++ {
				c[6+i] = sq * jinv[i]
			}
			base := 15 * (NQP*e + q)
			if r.F32 {
				for i, v := range c {
					r.c32[base+i] = float32(v)
				}
			} else {
				copy(r.c64[base:base+15], c[:])
			}
		}
	})
}

// N returns the number of velocity dofs.
func (r *Resident) N() int { return r.P.DA.NVelDOF() }

// kernel applies the stored-coefficient kernel to element e at the
// operator's precision.
func (r *Resident) kernel(e int, ue, _, ye *[81]float64, sc *arena) {
	if r.F32 {
		residentElement(r.c32[15*NQP*e:15*NQP*(e+1)], ue, ye, &tables32, &sc.ks32)
		return
	}
	residentElement64((*[15 * NQP]float64)(r.c64[15*NQP*e:]), ue, ye, &sc.ks.kernScratchG)
}

// Apply computes y = J_uu·u with symmetric Dirichlet elimination on the
// block schedule — the partition, element order and merge order of the
// blocked smoother's per-block items.
func (r *Resident) Apply(u, y la.Vec) {
	par.Run(r.P.Workers, r.ApplyPart(u, y))
}

// ApplyPart is Apply as a par.Part, for a caller that runs it inside a
// larger job (the V-cycle).
func (r *Resident) ApplyPart(u, y la.Vec) par.Part {
	return r.P.applyPart(&r.pass, identityRows, u, y)
}

// ApplyElements accumulates the action of the given element subset into y
// (which the caller must zero), mirroring TensorOp.ApplyElements: the
// building block of the rank-distributed halo apply. No Dirichlet
// identity rows are added — partial sums from different ranks must remain
// addable.
func (r *Resident) ApplyElements(elems []int, u, y la.Vec) {
	r.P.applyElements(elems, &r.pass, u, y)
}
