package fem

import (
	"math"

	"ptatin3d/internal/la"
)

// PointStats counts what the loops over material points did, one count
// per name of PointStatNames.
type PointStats [len(PointStatNames)]int64

// PointStatNames names the counts, as the model's "mpm" telemetry scope
// publishes them: seeks that found the element held and seeks that
// gathered it; point locations, the element hops of their walks, the
// Jacobian inversions and position evaluations of their Newton
// iterations, and points accepted from a Newton that did not converge.
var PointStatNames = [...]string{"cursor_hits", "cursor_misses", "locate_calls",
	"locate_hops", "locate_newton_full", "locate_newton_pos", "locate_unconverged"}

const (
	CursorHits = iota
	CursorMisses
	LocateCalls
	LocateHops
	NewtonFull
	NewtonPos
	LocateUnconverged
)

// ElemCursor holds one element at a time for a loop over material points:
// its coordinates, velocities and vertex temperatures are gathered when
// the loop seeks another element, not per point. Points are seeded
// element by element and stay nearly so, so most seeks find the element
// already held. Take one cursor per loop — that validates the geometry
// store once — and give every chunk of the loop its own copy.
type ElemCursor struct {
	P     *Problem
	u     la.Vec    // velocity state gathered into Ue (nil: none)
	t     []float64 // vertex field gathered into Te (nil: none)
	geo   *geometry
	E     int // the element held, -1 before the first Seek
	Xe    [81]float64
	Ue    [81]float64 // unmasked
	Te    [8]float64
	Stats PointStats
}

// Cursor returns a cursor over the mesh as it is now that gathers the
// velocity state u and the vertex field t; either may be nil.
func (p *Problem) Cursor(u la.Vec, t []float64) ElemCursor {
	return ElemCursor{P: p, u: u, t: t, geo: p.validGeometry(), E: -1}
}

// Seek makes e the element held.
func (c *ElemCursor) Seek(e int) {
	if e == c.E {
		c.Stats[CursorHits]++
		return
	}
	c.Stats[CursorMisses]++
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

// Done adds the cursor's counts to the problem's; call it once per chunk.
func (c *ElemCursor) Done() {
	gs := c.geo
	gs.mu.Lock()
	for i, n := range c.Stats {
		gs.stats[i] += n
	}
	gs.mu.Unlock()
	c.Stats = PointStats{}
}

// TakePointStats returns what finished cursors have counted since the
// last call.
func (p *Problem) TakePointStats() PointStats {
	gs := &p.geometry
	gs.mu.Lock()
	defer gs.mu.Unlock()
	s := gs.stats
	gs.stats = PointStats{}
	return s
}

// Box returns the mesh bounding box: min x,y,z then max x,y,z.
func (c *ElemCursor) Box() *[6]float64 { return &c.geo.box }

func (c *ElemCursor) frame() []float64 { return c.geo.frames[frameStride*c.E:] }

// Position maps reference position (xi,et,ze) of the element held to
// physical space.
func (c *ElemCursor) Position(xi, et, ze float64) (x, y, z float64) {
	return mapPos(&c.Xe, xi, et, ze)
}

const (
	locTol    = 1e-10
	newtonIts = 25
)

// InvertMap Newton-solves X(ξ) = (x,y,z) in the element held, from ξ = 0.
// It returns the local coordinates and whether Newton converged
// (regardless of bounds). The first iterate is the element's stored
// frame; a later one evaluates the position, and the Jacobian only if the
// position has not converged and another step must be taken.
func (c *ElemCursor) InvertMap(x, y, z float64) (xi, et, ze float64, ok bool) {
	fr := c.frame()
	px, py, pz, inv, det := fr[0], fr[1], fr[2], (*[9]float64)(fr[3:]), fr[12]
	var jinv [9]float64
	for it := 0; it < newtonIts; it++ {
		if it > 0 {
			px, py, pz = mapPos(&c.Xe, xi, et, ze)
			c.Stats[NewtonPos]++
		}
		rx, ry, rz := x-px, y-py, z-pz
		if rx*rx+ry*ry+rz*rz < locTol*locTol {
			return xi, et, ze, true
		}
		if it > 0 {
			inv = &jinv
			det = mapInv(&c.Xe, xi, et, ze, inv)
			c.Stats[NewtonFull]++
		}
		if det == 0 || math.IsNaN(det) {
			return xi, et, ze, false
		}
		// δξ_d = Σ_m (∂ξ_d/∂x_m) r_m; inv[m][s] = ∂ξ_s/∂x_m.
		xi += inv[0]*rx + inv[3]*ry + inv[6]*rz
		et += inv[1]*rx + inv[4]*ry + inv[7]*rz
		ze += inv[2]*rx + inv[5]*ry + inv[8]*rz
		// Keep the iterate from running far outside the element, which
		// destabilizes Newton on strongly deformed cells.
		xi = min(max(xi, -3), 3)
		et = min(max(et, -3), 3)
		ze = min(max(ze, -3), 3)
	}
	return xi, et, ze, false
}
