package fem

import (
	"math"
	"sync"

	"ptatin3d/internal/la"
)

// geomStride is the geometry store's width per quadrature point: the
// nine entries of the inverse Jacobian jinv[d][m] = ∂ξ_d/∂x_m, row-major,
// then detJ.
const geomStride = 10

// frameStride is the store's width per element, for the loops over
// material points: the first iterate of the Newton inversion of the
// element map, which every point of the element shares — the position of
// ξ = 0 (3), mapInv's inverse Jacobian there (9) and its determinant (1)
// — then elemCenterScale's centre (3) and 1/h (3) of the P1disc pressure
// basis.
const frameStride = 19

// geometry is a Problem's metric store: jacobianAt's output at every
// quadrature point of every element, so that the set-up and residual
// loops that run once per relinearisation or per residual evaluation
// (load vector, diagonal, resident coefficient stream, pressure mass,
// coupling blocks, element stiffness, strain rate) read the metric terms
// instead of inverting the same Jacobians again. The mesh moves once per
// time step; those loops run tens of times in between.
//
// The store validates itself: it keeps the coordinates it was built from
// and Problem.geom rebuilds it whenever DA.Coords no longer holds those
// bits, so writing DA.Coords is all a caller does to move the mesh. The
// apply kernels of Table I (MF, Tensor, and the resident kernel's stored
// stream) do not read it: what they recompute or stream per application
// is what the table measures.
type geometry struct {
	mu     sync.Mutex
	coords []float64  // DA.Coords as of the build
	g      []float64  // geomStride per quadrature point, index NQP*e+q
	frames []float64  // frameStride per element
	box    [6]float64 // min x,y,z then max x,y,z over all nodes
	stats  PointStats // what finished cursors counted; TakePointStats drains it
}

// geom returns the metric store of the mesh as it is now: geomStride
// floats per quadrature point, read-only for the caller. Safe for
// concurrent use as long as nobody moves the mesh meanwhile.
func (p *Problem) geom() []float64 { return p.validGeometry().g }

// validGeometry returns the store, rebuilt first if the mesh has moved
// since it was built: one compare of DA.Coords per call.
func (p *Problem) validGeometry() *geometry {
	gs := &p.geometry
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if !sameBits(gs.coords, p.DA.Coords) {
		gs.coords = append(gs.coords[:0], p.DA.Coords...)
		if nel := p.DA.NElements(); len(gs.frames) != frameStride*nel {
			gs.g = make([]float64, geomStride*NQP*nel)
			gs.frames = make([]float64, frameStride*nel)
		}
		p.forEachElement(func(e int) {
			var xe [81]float64
			p.gatherCoords(e, &xe)
			for q := 0; q < NQP; q++ {
				jd := gs.g[geomStride*(NQP*e+q):]
				jd[9] = jacobianAt(&xe, q, (*[9]float64)(jd))
			}
			fr := gs.frames[frameStride*e:]
			fr[0], fr[1], fr[2] = mapPos(&xe, 0, 0, 0)
			fr[12] = mapInv(&xe, 0, 0, 0, (*[9]float64)(fr[3:]))
			elemCenterScale(&xe, (*[3]float64)(fr[13:]), (*[3]float64)(fr[16:]))
		})
		c := gs.coords
		gs.box = [6]float64{c[0], c[1], c[2], c[0], c[1], c[2]}
		for n := 3; n < len(c); n += 3 {
			for d := 0; d < 3; d++ {
				if v := c[n+d]; v < gs.box[d] {
					gs.box[d] = v
				} else if v > gs.box[3+d] {
					gs.box[3+d] = v
				}
			}
		}
	}
	return gs
}

// mapPos evaluates the element map x(ξ) of the element with coordinates xe.
func mapPos(xe *[81]float64, xi, et, ze float64) (px, py, pz float64) {
	var nb [27]float64
	Q2Eval(xi, et, ze, &nb)
	for n := 0; n < 27; n++ {
		px += nb[n] * xe[3*n]
		py += nb[n] * xe[3*n+1]
		pz += nb[n] * xe[3*n+2]
	}
	return
}

// mapInv inverts the Jacobian of the element map at ξ: inv[m][s] =
// ∂ξ_s/∂x_m, row-major. It returns the determinant.
func mapInv(xe *[81]float64, xi, et, ze float64, inv *[9]float64) float64 {
	var gb [27][3]float64
	Q2Grad(xi, et, ze, &gb)
	var jmat [9]float64 // jmat[d*3+m] = ∂x_m/∂ξ_d
	for n := 0; n < 27; n++ {
		cx, cy, cz := xe[3*n], xe[3*n+1], xe[3*n+2]
		for d := 0; d < 3; d++ {
			jmat[d*3] += gb[n][d] * cx
			jmat[d*3+1] += gb[n][d] * cy
			jmat[d*3+2] += gb[n][d] * cz
		}
	}
	return la.Invert3(&jmat, inv)
}

// sameBits reports whether a and b hold the same float64 bit patterns
// (== would call −0 and +0 equal and NaN unequal to itself).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// geomAt views quadrature point q of element e in the store g.
func geomAt(g []float64, e, q int) (jinv *[9]float64, detJ float64) {
	jd := g[geomStride*(NQP*e+q):]
	return (*[9]float64)(jd), jd[9]
}
