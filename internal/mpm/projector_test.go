package mpm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/fem"
)

func clonePoints(p *Points) *Points {
	return &Points{
		X: append([]float64(nil), p.X...), Y: append([]float64(nil), p.Y...), Z: append([]float64(nil), p.Z...),
		Litho: append([]int32(nil), p.Litho...), Plastic: append([]float64(nil), p.Plastic...),
		Elem: append([]int32(nil), p.Elem...),
		Xi:   append([]float64(nil), p.Xi...), Et: append([]float64(nil), p.Et...), Ze: append([]float64(nil), p.Ze...),
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// projectSerial is the serial reference of Projector.Project (paper
// Eq. 12): every point scatters its 8 trilinear weights into the vertex
// accumulators, in point order.
func projectSerial(prob *fem.Problem, pts *Points, value func(i int) float64, fallback []float64) []float64 {
	da := prob.DA
	nv := da.NVertices()
	num := make([]float64, nv)
	den := make([]float64, nv)
	var vs [8]int32
	var nb [8]float64
	for i := 0; i < pts.Len(); i++ {
		e := int(pts.Elem[i])
		if e < 0 {
			continue
		}
		da.ElemVertices(e, &vs)
		fem.Q1Eval(pts.Xi[i], pts.Et[i], pts.Ze[i], &nb)
		v := value(i)
		for c := 0; c < 8; c++ {
			num[vs[c]] += nb[c] * v
			den[vs[c]] += nb[c]
		}
	}
	out := make([]float64, nv)
	empty := 0
	for i := range out {
		if den[i] > 0 {
			out[i] = num[i] / den[i]
		} else if fallback != nil {
			out[i] = fallback[i]
		} else {
			empty++
			out[i] = 0 // patched below
		}
	}
	if fallback == nil && empty > 0 {
		patchEmptyVertices(da, out, den)
	}
	return out
}

// TestProjectorMatchesSerialAnyWorkers pins the Projector's central
// contract: the parallel vertex-owner reduction reproduces the serial
// scatter of projectSerial bit-for-bit at every worker count.
func TestProjectorMatchesSerialAnyWorkers(t *testing.T) {
	for _, deformed := range []bool{false, true} {
		var p *fem.Problem
		if deformed {
			p = deformedProblem(4)
		} else {
			p = flatProblem(4)
		}
		pts := NewLattice(p, 3, func(x, y, z float64) int32 {
			if x+y+z > 1.4 {
				return 1
			}
			return 0
		})
		// Perturb local coordinates and orphan a few points so the
		// skip-unlocated and starved-vertex paths are exercised too.
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < pts.Len(); i++ {
			pts.Xi[i] += 0.05 * (rng.Float64() - 0.5)
			pts.Et[i] += 0.05 * (rng.Float64() - 0.5)
			pts.Ze[i] += 0.05 * (rng.Float64() - 0.5)
			if i%97 == 0 {
				pts.Elem[i] = -1
			}
		}
		value := func(i int) float64 {
			return 0.5 + float64(pts.Litho[i]) + math.Sin(pts.X[i]*3+pts.Y[i])
		}
		fallback := make([]float64, p.DA.NVertices())
		for v := range fallback {
			fallback[v] = float64(v%5) + 0.25
		}
		p.Workers = 1
		ref := projectSerial(p, pts, value, fallback)
		refNil := projectSerial(p, pts, value, nil)
		for _, w := range []int{1, 2, 4, 8} {
			p.Workers = w
			pj := NewProjector(p)
			for pass := 0; pass < 2; pass++ { // second pass hits the cached incidence
				got := pj.Project(pts, value, fallback)
				if !equalBits(got, ref) {
					t.Fatalf("deformed=%v workers=%d pass=%d: parallel projection differs from serial", deformed, w, pass)
				}
				gotNil := pj.Project(pts, value, nil)
				if !equalBits(gotNil, refNil) {
					t.Fatalf("deformed=%v workers=%d pass=%d (nil fallback): parallel projection differs from serial", deformed, w, pass)
				}
			}
		}
	}
}

// TestProjectorInvalidate verifies the incidence cache tracks point
// movement: after advection changes element assignments without changing
// the population, Invalidate must restore agreement with the serial
// reference computed from the new locations.
func TestProjectorInvalidate(t *testing.T) {
	p := flatProblem(3)
	p.Workers = 4
	pts := NewLattice(p, 2, func(x, y, z float64) int32 { return 0 })
	value := func(i int) float64 { return pts.X[i] + 2*pts.Y[i] + 3*pts.Z[i] }
	pj := NewProjector(p)
	p.Workers = 1
	ref := projectSerial(p, pts, value, nil)
	p.Workers = 4
	if got := pj.Project(pts, value, nil); !equalBits(got, ref) {
		t.Fatal("initial projection disagrees with serial reference")
	}
	// Advect every point by a third of a cell and relocate; the point
	// count is unchanged, so only Invalidate tells the projector.
	for i := 0; i < pts.Len(); i++ {
		pts.X[i] = math.Min(pts.X[i]+0.1, 0.999)
	}
	if lost := LocateAll(p, pts); len(lost) != 0 {
		t.Fatalf("unexpected lost points: %d", len(lost))
	}
	pj.Invalidate()
	p.Workers = 1
	ref = projectSerial(p, pts, value, nil)
	p.Workers = 4
	if got := pj.Project(pts, value, nil); !equalBits(got, ref) {
		t.Fatal("post-move projection disagrees with serial reference")
	}
}

// TestProjectorCachedWeights: the Q1 weights are cached with the
// incidence. Successive projections of different properties over the
// same points equal those of fresh projectors; after the points' local
// coordinates move inside their elements (the element assignment, and so
// the incidence, unchanged) Invalidate makes Project equal a fresh
// projector's output again.
func TestProjectorCachedWeights(t *testing.T) {
	p := deformedProblem(3)
	p.Workers = 3
	pts := NewLattice(p, 2, func(x, y, z float64) int32 { return 0 })
	props := []func(i int) float64{
		func(i int) float64 { return pts.X[i] + 2*pts.Y[i] },
		func(i int) float64 { return math.Exp(pts.Z[i]) },
	}
	pj := NewProjector(p)
	check := func(what string) {
		t.Helper()
		for k, value := range props {
			if got, want := pj.Project(pts, value, nil), NewProjector(p).Project(pts, value, nil); !equalBits(got, want) {
				t.Fatalf("%s: projection %d differs from a fresh projector's", what, k)
			}
		}
	}
	check("cached")
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < pts.Len(); i++ {
		pts.Xi[i] += 0.1 * (rng.Float64() - 0.5)
		pts.Et[i] += 0.1 * (rng.Float64() - 0.5)
		pts.Ze[i] += 0.1 * (rng.Float64() - 0.5)
	}
	if stale := pj.Project(pts, props[0], nil); equalBits(stale, NewProjector(p).Project(pts, props[0], nil)) {
		t.Fatal("moving ξ without Invalidate changed nothing: the weights are not cached")
	}
	pj.Invalidate()
	check("after Invalidate")
}

// TestLocateAllParallelMatchesSerial pins that the pooled location pass
// produces, bit for bit, the assignments and the same (ascending) lost
// list at 8 workers as at 1 — on column meshes with a rough surface on
// every vertical axis, with points pushed off their lattice and some out
// of the domain.
func TestLocateAllParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for axis := 0; axis < 3; axis++ {
		p := columnProblem(rng, 4, 4, 4, axis)
		pts := NewLattice(p, 3, func(x, y, z float64) int32 { return 0 })
		for i := 0; i < pts.Len(); i++ {
			pts.X[i] += 0.3 * (rng.Float64() - 0.5)
			pts.Y[i] += 0.3 * (rng.Float64() - 0.5)
			pts.Z[i] += 0.3 * (rng.Float64() - 0.5)
		}
		ref := clonePoints(pts)
		p.Workers = 1
		refLost := LocateAll(p, ref)
		p.Workers = 8
		lost := LocateAll(p, pts)
		if len(refLost) == 0 || !slices.Equal(lost, refLost) {
			t.Fatalf("axis %d: lost %v at 8 workers, %v at 1", axis, lost, refLost)
		}
		for i := 0; i < pts.Len(); i++ {
			if pts.Elem[i] != ref.Elem[i] || math.Float64bits(pts.Xi[i]) != math.Float64bits(ref.Xi[i]) ||
				math.Float64bits(pts.Et[i]) != math.Float64bits(ref.Et[i]) || math.Float64bits(pts.Ze[i]) != math.Float64bits(ref.Ze[i]) {
				t.Fatalf("axis %d point %d: located in %d at (%v,%v,%v) at 8 workers, %d at (%v,%v,%v) at 1", axis, i,
					pts.Elem[i], pts.Xi[i], pts.Et[i], pts.Ze[i], ref.Elem[i], ref.Xi[i], ref.Et[i], ref.Ze[i])
			}
		}
	}
}

// nearestPointPropsRef is the original O(points) linear scan, kept as the
// behavioural reference for the bucketed search.
func nearestPointPropsRef(pts *Points, elem int, x, y, z float64) (int32, float64) {
	bestD := -1.0
	var lith int32
	var plastic float64
	scan := func(sameElemOnly bool) bool {
		found := false
		for i := 0; i < pts.Len(); i++ {
			if sameElemOnly && int(pts.Elem[i]) != elem {
				continue
			}
			dx, dy, dz := pts.X[i]-x, pts.Y[i]-y, pts.Z[i]-z
			d := dx*dx + dy*dy + dz*dz
			if bestD < 0 || d < bestD {
				bestD = d
				lith = pts.Litho[i]
				plastic = pts.Plastic[i]
				found = true
			}
		}
		return found
	}
	if !scan(true) {
		scan(false)
	}
	return lith, plastic
}

// TestBucketedNearestMatchesScan drains one element of a large swarm and
// checks that population control's bucketed nearest-point search makes
// the same inheritance decisions as the full linear scan, including the
// lowest-index-wins tie-break and visibility of points injected earlier
// in the same pass.
func TestBucketedNearestMatchesScan(t *testing.T) {
	p := deformedProblem(5)
	pts := NewLattice(p, 3, func(x, y, z float64) int32 {
		return int32(int(x*10+y*7+z*3) % 4)
	})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < pts.Len(); i++ {
		pts.Plastic[i] = rng.Float64()
	}
	// Drain two elements (one interior, one corner) entirely.
	drained := []int32{int32(p.DA.NElements() / 2), 0}
	for i := pts.Len() - 1; i >= 0; i-- {
		for _, e := range drained {
			if pts.Elem[i] == e {
				pts.RemoveSwap(i)
				break
			}
		}
	}
	buckets := newPointBuckets(p.DA.NElements(), pts)
	rq := rand.New(rand.NewSource(5))
	for q := 0; q < 200; q++ {
		e := int(drained[q%len(drained)])
		x, y, z := rq.Float64(), rq.Float64(), rq.Float64()
		gl, gp := nearestPointProps(pts, buckets, e, x, y, z)
		wl, wp := nearestPointPropsRef(pts, e, x, y, z)
		if gl != wl || gp != wp {
			t.Fatalf("query %d (elem %d, %.3f,%.3f,%.3f): bucketed (%d,%g) vs scan (%d,%g)",
				q, e, x, y, z, gl, gp, wl, wp)
		}
	}
	// Incremental visibility: inject a point and re-query near it.
	idx := pts.Append(0.501, 0.501, 0.501, 9, 42)
	pts.Elem[idx] = drained[0]
	buckets.add(int(drained[0]), int32(idx), 0.501, 0.501, 0.501)
	gl, gp := nearestPointProps(pts, buckets, int(drained[1]), 0.5, 0.5, 0.5)
	wl, wp := nearestPointPropsRef(pts, int(drained[1]), 0.5, 0.5, 0.5)
	if gl != wl || gp != wp {
		t.Fatalf("appended point: bucketed (%d,%g) vs scan (%d,%g)", gl, gp, wl, wp)
	}
}

// TestEnsureMinPerElementRegression seeds a drained element in a large
// swarm and checks the refill inherits properties from the true nearest
// neighbours (the satellite regression for the bucketed rewrite).
func TestEnsureMinPerElementRegression(t *testing.T) {
	p := flatProblem(6)
	pts := NewLattice(p, 3, func(x, y, z float64) int32 {
		if y > 0.5 {
			return 2
		}
		return 1
	})
	target := int32(p.DA.NElements() - 1) // corner element, litho 2 region
	for i := pts.Len() - 1; i >= 0; i-- {
		if pts.Elem[i] == target {
			pts.RemoveSwap(i)
		}
	}
	before := pts.Len()
	injected := EnsureMinPerElement(p, pts, 4, 2)
	if injected != 8 {
		t.Fatalf("injected = %d, want 8 (2^3 lattice refill)", injected)
	}
	if pts.Len() != before+8 {
		t.Fatalf("len = %d, want %d", pts.Len(), before+8)
	}
	for i := before; i < pts.Len(); i++ {
		if pts.Elem[i] != target {
			t.Fatalf("injected point %d in element %d, want %d", i, pts.Elem[i], target)
		}
		if pts.Litho[i] != 2 {
			t.Fatalf("injected point %d inherited litho %d, want 2 (nearest-neighbour region)", i, pts.Litho[i])
		}
	}
}
