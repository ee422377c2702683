package fem

import (
	"math"
	"sync"

	"ptatin3d/internal/mesh"
)

// geomStride is the geometry store's width per quadrature point: the
// nine entries of the inverse Jacobian jinv[d][m] = ∂ξ_d/∂x_m, row-major,
// then detJ.
const geomStride = 10

// frameStride is the store's width per element, for the loops over
// material points: elemCenterScale's centre (3) and 1/h (3) of the P1disc
// pressure basis.
const frameStride = 6

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
	coords []float64     // DA.Coords as of the build
	g      []float64     // geomStride per quadrature point, index NQP*e+q
	frames []float64     // frameStride per element
	cols   *mesh.Columns // for point location; nil, and colErr says why, off a column mesh
	colErr error
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
			elemCenterScale(&xe, (*[3]float64)(fr), (*[3]float64)(fr[3:]))
		})
		gs.cols, gs.colErr = p.DA.Columns()
	}
	return gs
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
