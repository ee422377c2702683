package mesh

import (
	"fmt"
	"math"
)

// UpdateFreeSurface performs the ALE mesh update of paper §V: nodes on the
// maximum face of the given vertical axis (0=x, 1=y, 2=z) are advected
// with the vertical component of the nodal velocity field, and the
// interior nodes of each vertical grid column are redistributed linearly
// between the (fixed) bottom node and the new surface node. vel is the
// velocity vector with 3 dofs per node; dt is the time step.
//
// This column-wise remeshing keeps the IJK topology intact while letting
// the mesh follow a deforming free surface (topography), matching the
// boundary-fitted strategy the paper adopts for the Q2 mesh.
func UpdateFreeSurface(da *DA, vel []float64, dt float64, axis int) {
	if len(vel) != da.NVelDOF() {
		panic(fmt.Sprintf("mesh: UpdateFreeSurface velocity length %d, want %d", len(vel), da.NVelDOF()))
	}
	if axis < 0 || axis > 2 {
		panic("mesh: UpdateFreeSurface axis must be 0, 1 or 2")
	}
	da.forEachColumn(axis, func(bot, step, nv int) {
		top := bot + (nv-1)*step
		ytop := da.Coords[3*top+axis] + dt*vel[3*top+axis]
		ybot := da.Coords[3*bot+axis]
		// Redistribute the column linearly between ybot and the advected
		// surface; the bottom stays fixed.
		for v := 1; v < nv; v++ {
			frac := float64(v) / float64(nv-1)
			da.Coords[3*(bot+v*step)+axis] = ybot + frac*(ytop-ybot)
		}
	})
}

// SurfaceRange returns the minimum and maximum coordinate of the top
// surface (max face of axis). Used to report topography in the rifting
// model and to validate the ALE update in tests.
func SurfaceRange(da *DA, axis int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	da.forEachColumn(axis, func(bot, step, nv int) {
		c := da.Coords[3*(bot+(nv-1)*step)+axis]
		lo, hi = min(lo, c), max(hi, c)
	})
	return lo, hi
}

// forEachColumn calls f, in node order, with the first node, the node
// stride and the node count of every node column along axis.
func (da *DA) forEachColumn(axis int, f func(first, step, nv int)) {
	np, stride := da.axes()
	lat := lateral(axis)
	for b := 0; b < np[lat[1]]; b++ {
		for a := 0; a < np[lat[0]]; a++ {
			f(a*stride[lat[0]]+b*stride[lat[1]], stride[axis], np[axis])
		}
	}
}

// axes returns the node count and the node index stride along each axis.
func (da *DA) axes() (np, stride [3]int) {
	return [3]int{da.NPx, da.NPy, da.NPz}, [3]int{1, da.NPx, da.NPx * da.NPy}
}

// lateral returns the two axes other than axis, ascending.
func lateral(axis int) [2]int {
	return [2]int{min((axis+1)%3, (axis+2)%3), max((axis+1)%3, (axis+2)%3)}
}
