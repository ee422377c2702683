package fem

import (
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// ElemCursor holds one element at a time for a loop over material points:
// its coordinates, velocities and vertex temperatures are gathered when
// the loop seeks another element, not per point. Points are seeded
// element by element and stay nearly so, so most seeks find the element
// already held. Take one cursor per loop — that validates the geometry
// store once — and give every chunk of the loop its own copy.
type ElemCursor struct {
	P   *Problem
	u   la.Vec    // velocity state gathered into Ue (nil: none)
	t   []float64 // vertex field gathered into Te (nil: none)
	geo *geometry
	E   int // the element held, -1 before the first Seek
	Xe  [81]float64
	Ue  [81]float64 // unmasked
	Te  [8]float64
}

// Cursor returns a cursor over the mesh as it is now that gathers the
// velocity state u and the vertex field t; either may be nil.
func (p *Problem) Cursor(u la.Vec, t []float64) ElemCursor {
	return ElemCursor{P: p, u: u, t: t, geo: p.validGeometry(), E: -1}
}

// Seek makes e the element held.
func (c *ElemCursor) Seek(e int) {
	if e == c.E {
		return
	}
	c.E = e
	c.P.gatherCoords(e, &c.Xe)
	if c.u != nil {
		for n, node := range c.P.Emap[27*e : 27*e+27] {
			d := 3 * int(node)
			c.Ue[3*n], c.Ue[3*n+1], c.Ue[3*n+2] = c.u[d], c.u[d+1], c.u[d+2]
		}
	}
	if c.t != nil {
		var vs [8]int32
		c.P.DA.ElemVertices(e, &vs)
		for i, v := range vs {
			c.Te[i] = c.t[v]
		}
	}
}

// Columns returns the column description of the cursor's mesh. It panics
// with the *mesh.ColumnError on a mesh that is not one, which
// scenario.Compile, Model.Restore and the ALE step refuse first.
func (c *ElemCursor) Columns() *mesh.Columns {
	if c.geo.cols == nil {
		panic(c.geo.colErr)
	}
	return c.geo.cols
}

func (c *ElemCursor) frame() []float64 { return c.geo.frames[frameStride*c.E:] }

// Position maps reference position (xi,et,ze) of the element held to
// physical space.
func (c *ElemCursor) Position(xi, et, ze float64) (x, y, z float64) {
	var nb [27]float64
	Q2Eval(xi, et, ze, &nb)
	for n := 0; n < 27; n++ {
		x += nb[n] * c.Xe[3*n]
		y += nb[n] * c.Xe[3*n+1]
		z += nb[n] * c.Xe[3*n+2]
	}
	return
}
