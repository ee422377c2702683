package mpm

import (
	"math"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/par"
)

// Point location (paper §II-D) in closed form on the column mesh the time
// loop builds (mesh.Columns), with no iteration and no starting guess.
// Laterally the Q2 map is affine in ξ alone: the element is index
// arithmetic on the node line, and ξ = 2(p − x₁)/(x₂ − x₀) from its mid
// node x₁. Vertically, with z_b and z_t the biquadratic interpolants at
// (ξ, η) of the element's nine column bottoms and tops, s = M_v·(z − z_b)/
// (z_t − z_b) gives the layer k = ⌊s⌋ and ζ = 2(s − k) − 1 — exactly, since
// node heights are linear in the node index and Q2 reproduces linears.
// A point on a face two elements share is the upper element's.

// locBounds is the acceptance band on a reference coordinate at the boundary.
const locBounds = 1.0 + 1e-8

// Locate finds the element containing (x,y,z) and the point's reference
// coordinates in it; found is false outside the domain. It seeks
// nothing: a caller that evaluates in the element seeks it. It panics on a mesh that is not a column mesh.
func Locate(c *fem.ElemCursor, x, y, z float64) (e int, xi, et, ze float64, found bool) {
	col := c.Columns()
	p := [3]float64{x, y, z}
	var ijk [3]int
	var ref [3]float64
	for l, a := range col.Lateral {
		ijk[a], ref[a] = lineElement(col.Lines[l], p[a])
		if !(math.Abs(ref[a]) <= locBounds) {
			return -1, 0, 0, 0, false
		}
	}
	// The column's bottom and top at (ξ, η).
	l0, l1 := col.Lateral[0], col.Lateral[1]
	n := len(col.Lines[0])
	o := 2*ijk[l0] + 2*ijk[l1]*n
	a0, a1, a2 := fem.Q2Vals(ref[l0])
	b0, b1, b2 := fem.Q2Vals(ref[l1])
	surface := func(s []float64) float64 {
		s = s[o:]
		return b0*(a0*s[0]+a1*s[1]+a2*s[2]) + b1*(a0*s[n]+a1*s[n+1]+a2*s[n+2]) + b2*(a0*s[2*n]+a1*s[2*n+1]+a2*s[2*n+2])
	}
	bot := surface(col.Bottom)
	s := float64(col.Layers) * (p[col.Vertical] - bot) / (surface(col.Top) - bot)
	k := col.Layers - 1
	if s < float64(k) {
		k = int(max(s, 0))
	}
	if ref[col.Vertical] = 2*(s-float64(k)) - 1; !(math.Abs(ref[col.Vertical]) <= locBounds) {
		return -1, 0, 0, 0, false
	}
	ijk[col.Vertical] = k
	return c.P.DA.ElemID(ijk[0], ijk[1], ijk[2]), ref[0], ref[1], ref[2], true
}

// lineElement returns the element i of node line l whose vertex span
// [l[2i], l[2i+2]) holds p, the end elements taking what lies beyond, and
// p's reference coordinate in it. The loops correct the proportional
// guess: by rounding on a uniform line, by more on a graded one.
func lineElement(l []float64, p float64) (i int, xi float64) {
	m := len(l) / 2
	if t := float64(m) * (p - l[0]) / (l[2*m] - l[0]); t >= 1 {
		i = int(min(t, float64(m-1)))
	}
	for i > 0 && p < l[2*i] {
		i--
	}
	for i < m-1 && p >= l[2*i+2] {
		i++
	}
	return i, 2 * (p - l[2*i+1]) / (l[2*i+2] - l[2*i])
}

// LocateAll (re)locates every point on the worker pool, each writing only
// its own slots. Points that left the domain get Elem = -1 and are
// returned in ascending index order (the Ls list of §II-D in the
// single-rank view; with a domain decomposition, Migrate routes them to
// neighbour ranks first and only then discards true outflow).
func LocateAll(prob *fem.Problem, pts *Points) (lost []int) {
	return locateAll(prob, pts, prob.Workers)
}

func locateAll(prob *fem.Problem, pts *Points, workers int) (lost []int) {
	n := pts.Len()
	cur := prob.Cursor(nil, nil)
	par.For(workers, n, func(lo, hi int) {
		c := cur
		for i := lo; i < hi; i++ {
			e, xi, et, ze, ok := Locate(&c, pts.X[i], pts.Y[i], pts.Z[i])
			if ok {
				pts.Elem[i] = int32(e)
				pts.Xi[i], pts.Et[i], pts.Ze[i] = xi, et, ze
			} else {
				pts.Elem[i] = -1
			}
		}
	})
	for i := 0; i < n; i++ {
		if pts.Elem[i] < 0 {
			lost = append(lost, i)
		}
	}
	return lost
}
