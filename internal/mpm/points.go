// Package mpm implements the material-point method of paper §II-C: a set
// of Lagrangian points carrying rock lithology Φ and history variables
// (accumulated plastic strain), advected through the Eulerian/ALE mesh by
// the computed velocity field. Material properties evaluated at the
// points are transferred to the quadrature points of the finite element
// mesh by a local L2 projection onto the Q1 corner-vertex space (Eq. 12)
// followed by trilinear interpolation (Eq. 13).
package mpm

import "ptatin3d/internal/fem"

// Points is a structure-of-arrays store of material points.
type Points struct {
	X, Y, Z []float64 // positions
	Litho   []int32   // lithology index Φ
	Plastic []float64 // accumulated plastic strain (history variable)

	// Cached location: containing element and local (reference)
	// coordinates; Elem[i] < 0 marks an unlocated point.
	Elem       []int32
	Xi, Et, Ze []float64
}

// Len returns the number of points.
func (p *Points) Len() int { return len(p.X) }

// Append adds a point and returns its index.
func (p *Points) Append(x, y, z float64, litho int32, plastic float64) int {
	p.X = append(p.X, x)
	p.Y = append(p.Y, y)
	p.Z = append(p.Z, z)
	p.Litho = append(p.Litho, litho)
	p.Plastic = append(p.Plastic, plastic)
	p.Elem = append(p.Elem, -1)
	p.Xi = append(p.Xi, 0)
	p.Et = append(p.Et, 0)
	p.Ze = append(p.Ze, 0)
	return p.Len() - 1
}

// RemoveSwap deletes point i by swapping the last point into its slot.
func (p *Points) RemoveSwap(i int) {
	last := p.Len() - 1
	p.X[i], p.Y[i], p.Z[i] = p.X[last], p.Y[last], p.Z[last]
	p.Litho[i] = p.Litho[last]
	p.Plastic[i] = p.Plastic[last]
	p.Elem[i] = p.Elem[last]
	p.Xi[i], p.Et[i], p.Ze[i] = p.Xi[last], p.Et[last], p.Ze[last]
	p.X = p.X[:last]
	p.Y = p.Y[:last]
	p.Z = p.Z[:last]
	p.Litho = p.Litho[:last]
	p.Plastic = p.Plastic[:last]
	p.Elem = p.Elem[:last]
	p.Xi = p.Xi[:last]
	p.Et = p.Et[:last]
	p.Ze = p.Ze[:last]
}

// NewLattice seeds nper×nper×nper points per element at regular reference
// positions (the standard MPM initialization), assigning lithology via
// the classify function evaluated at the point's physical position.
// classify may be nil (lithology 0 everywhere).
func NewLattice(prob *fem.Problem, nper int, classify func(x, y, z float64) int32) *Points {
	da := prob.DA
	nel := da.NElements()
	pts := &Points{}
	n := nel * nper * nper * nper
	pts.X = make([]float64, 0, n)
	pts.Y = make([]float64, 0, n)
	pts.Z = make([]float64, 0, n)
	pts.Litho = make([]int32, 0, n)
	pts.Plastic = make([]float64, 0, n)
	pts.Elem = make([]int32, 0, n)
	pts.Xi = make([]float64, 0, n)
	pts.Et = make([]float64, 0, n)
	pts.Ze = make([]float64, 0, n)

	c := prob.Cursor(nil, nil)
	for e := 0; e < nel; e++ {
		c.Seek(e)
		for k := 0; k < nper; k++ {
			for j := 0; j < nper; j++ {
				for i := 0; i < nper; i++ {
					// Cell-centred reference lattice in [-1,1]³.
					xi := -1 + (2*float64(i)+1)/float64(nper)
					et := -1 + (2*float64(j)+1)/float64(nper)
					ze := -1 + (2*float64(k)+1)/float64(nper)
					px, py, pz := c.Position(xi, et, ze)
					var lith int32
					if classify != nil {
						lith = classify(px, py, pz)
					}
					idx := pts.Append(px, py, pz, lith, 0)
					pts.Elem[idx] = int32(e)
					pts.Xi[idx], pts.Et[idx], pts.Ze[idx] = xi, et, ze
				}
			}
		}
	}
	return pts
}

// CountPerElement returns how many located points each element contains —
// used by tests and by population-control diagnostics (empty elements
// starve the projection of Eq. 12).
func CountPerElement(prob *fem.Problem, pts *Points) []int {
	counts := make([]int, prob.DA.NElements())
	for i := 0; i < pts.Len(); i++ {
		if e := pts.Elem[i]; e >= 0 {
			counts[e]++
		}
	}
	return counts
}
