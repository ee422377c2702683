package mpm

import (
	"ptatin3d/internal/fem"
)

// patchEmptyVertices fills starved vertices (no points in support) with
// the average of populated neighbouring vertices, sweeping until covered.
// Rare in practice — it needs an element devoid of material points — but
// projection must stay total for the solver.
// patchStencil is the 6-neighbour sweep stencil, hoisted to package scope
// so the sweep loop does not allocate it per starved vertex.
var patchStencil = [6]struct{ i, j, k int }{
	{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
}

func patchEmptyVertices(da interface {
	VertexID(i, j, k int) int
	VertexIJK(v int) (int, int, int)
}, out, den []float64) {
	var maxI, maxJ, maxK int
	for v := range out {
		i, j, k := da.VertexIJK(v)
		if i > maxI {
			maxI = i
		}
		if j > maxJ {
			maxJ = j
		}
		if k > maxK {
			maxK = k
		}
	}
	filled := make([]bool, len(out))
	for v := range out {
		filled[v] = den[v] > 0
	}
	for sweep := 0; sweep < len(out); sweep++ {
		changed := false
		done := true
		for v := range out {
			if filled[v] {
				continue
			}
			done = false
			i, j, k := da.VertexIJK(v)
			var sum float64
			var n int
			for _, d := range patchStencil {
				ii, jj, kk := i+d.i, j+d.j, k+d.k
				if ii < 0 || ii > maxI || jj < 0 || jj > maxJ || kk < 0 || kk > maxK {
					continue
				}
				nv := da.VertexID(ii, jj, kk)
				if filled[nv] {
					sum += out[nv]
					n++
				}
			}
			if n > 0 {
				out[v] = sum / float64(n)
				filled[v] = true
				changed = true
			}
		}
		if done || !changed {
			break
		}
	}
}

// EnsureMinPerElement is the population-control safeguard: elements whose
// point count has dropped below minCount (advection can drain cells near
// outflow boundaries and strong shear) are re-seeded with an nper³
// reference lattice. Injected points inherit the lithology and plastic
// strain of the nearest existing point (searching the element itself,
// then the whole population) so composition is preserved. Returns the
// number of injected points.
func EnsureMinPerElement(prob *fem.Problem, pts *Points, minCount, nper int) int {
	injected := 0
	// The nearest-point index is a pass over every point; most steps drain
	// no element and never build it.
	var buckets *pointBuckets
	var cur fem.ElemCursor
	for e, c := range CountPerElement(prob, pts) {
		if c >= minCount {
			continue
		}
		if buckets == nil {
			buckets = newPointBuckets(prob.DA.NElements(), pts)
			cur = prob.Cursor(nil, nil)
		}
		cur.Seek(e)
		for k := 0; k < nper; k++ {
			for j := 0; j < nper; j++ {
				for i := 0; i < nper; i++ {
					xi := -1 + (2*float64(i)+1)/float64(nper)
					et := -1 + (2*float64(j)+1)/float64(nper)
					ze := -1 + (2*float64(k)+1)/float64(nper)
					px, py, pz := cur.Position(xi, et, ze)
					lith, plastic := nearestPointProps(pts, buckets, e, px, py, pz)
					idx := pts.Append(px, py, pz, lith, plastic)
					pts.Elem[idx] = int32(e)
					pts.Xi[idx], pts.Et[idx], pts.Ze[idx] = xi, et, ze
					buckets.add(e, int32(idx), px, py, pz)
					injected++
				}
			}
		}
	}
	return injected
}

// pointBuckets indexes points by containing element for nearest-neighbour
// queries: a CSR of point indices (ascending within each element), an
// overflow list for points appended after the build, and the bounding box
// of each element's points for distance pruning. It turns the population
// control's nearest-point search from a scan of every point per injection
// into a scan of candidate elements, almost all of which are rejected by
// a single box-distance test.
type pointBuckets struct {
	start []int32
	idx   []int32
	extra [][]int32
	bb    []float64 // per element: min x,y,z then max x,y,z of its points
	has   []bool
}

func newPointBuckets(nel int, pts *Points) *pointBuckets {
	b := &pointBuckets{
		start: make([]int32, nel+1),
		extra: make([][]int32, nel),
		bb:    make([]float64, 6*nel),
		has:   make([]bool, nel),
	}
	n := pts.Len()
	for i := 0; i < n; i++ {
		if e := pts.Elem[i]; e >= 0 {
			b.start[e+1]++
		}
	}
	for e := 0; e < nel; e++ {
		b.start[e+1] += b.start[e]
	}
	b.idx = make([]int32, b.start[nel])
	next := make([]int32, nel)
	copy(next, b.start[:nel])
	for i := 0; i < n; i++ {
		e := pts.Elem[i]
		if e < 0 {
			continue
		}
		b.idx[next[e]] = int32(i)
		next[e]++
		b.grow(int(e), pts.X[i], pts.Y[i], pts.Z[i])
	}
	return b
}

func (b *pointBuckets) grow(e int, x, y, z float64) {
	o := 6 * e
	if !b.has[e] {
		b.has[e] = true
		b.bb[o], b.bb[o+1], b.bb[o+2] = x, y, z
		b.bb[o+3], b.bb[o+4], b.bb[o+5] = x, y, z
		return
	}
	if x < b.bb[o] {
		b.bb[o] = x
	}
	if y < b.bb[o+1] {
		b.bb[o+1] = y
	}
	if z < b.bb[o+2] {
		b.bb[o+2] = z
	}
	if x > b.bb[o+3] {
		b.bb[o+3] = x
	}
	if y > b.bb[o+4] {
		b.bb[o+4] = y
	}
	if z > b.bb[o+5] {
		b.bb[o+5] = z
	}
}

// add registers a freshly appended point so later searches in the same
// population-control pass see it, matching the incremental visibility of
// the original full scan.
func (b *pointBuckets) add(e int, i int32, x, y, z float64) {
	b.extra[e] = append(b.extra[e], i)
	b.grow(e, x, y, z)
}

// forElem visits element e's points in ascending point-index order (CSR
// entries first, then appended overflow — overflow indices are always
// larger, so the concatenation stays sorted).
func (b *pointBuckets) forElem(e int, f func(i int32)) {
	for _, i := range b.idx[b.start[e]:b.start[e+1]] {
		f(i)
	}
	for _, i := range b.extra[e] {
		f(i)
	}
}

// dist2 is the squared distance from (x,y,z) to element e's point
// bounding box — a lower bound on the distance to any point inside.
func (b *pointBuckets) dist2(e int, x, y, z float64) float64 {
	o := 6 * e
	var d, t float64
	if t = b.bb[o] - x; t > 0 {
		d += t * t
	} else if t = x - b.bb[o+3]; t > 0 {
		d += t * t
	}
	if t = b.bb[o+1] - y; t > 0 {
		d += t * t
	} else if t = y - b.bb[o+4]; t > 0 {
		d += t * t
	}
	if t = b.bb[o+2] - z; t > 0 {
		d += t * t
	} else if t = z - b.bb[o+5]; t > 0 {
		d += t * t
	}
	return d
}

// nearestPointProps finds the nearest existing point, preferring points in
// the same element, and returns its lithology and plastic strain. The
// winner is the lexicographic minimum of (squared distance, point index),
// which is exactly the point the original linear scan kept (first strict
// minimum = lowest index among ties); the bounding-box prune is strict
// (lb > best) so an element that could still hold an equal-distance,
// lower-index point is always visited.
func nearestPointProps(pts *Points, b *pointBuckets, elem int, x, y, z float64) (int32, float64) {
	bestD := -1.0
	bestI := int32(-1)
	consider := func(i int32) {
		dx, dy, dz := pts.X[i]-x, pts.Y[i]-y, pts.Z[i]-z
		d := dx*dx + dy*dy + dz*dz
		if bestD < 0 || d < bestD || (d == bestD && i < bestI) {
			bestD, bestI = d, i
		}
	}
	b.forElem(elem, consider)
	if bestI < 0 {
		for e := range b.has {
			if !b.has[e] {
				continue
			}
			if bestD >= 0 && b.dist2(e, x, y, z) > bestD {
				continue
			}
			b.forElem(e, consider)
		}
	}
	if bestI < 0 {
		return 0, 0
	}
	return pts.Litho[bestI], pts.Plastic[bestI]
}
