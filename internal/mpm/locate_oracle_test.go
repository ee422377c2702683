package mpm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// The functions below are point location as it was before the closed
// form: a Newton inversion of the element map in a candidate element, and
// a walk to the neighbour each violated bound points at, from a guess read
// off the bounding box. They work on any hexahedral mesh; the closed form
// needs a column mesh. They are the oracle of TestLocateMatchesNewtonOracle,
// and what a remesher that breaks columns would bring back.

const (
	refLocTol     = 1e-10
	refNewtonIts  = 25
	refMaxWalkHop = 64
)

func refGatherCoords(prob *fem.Problem, e int, xe *[81]float64) {
	em := prob.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		c := 3 * int(em[n])
		xe[3*n] = prob.DA.Coords[c]
		xe[3*n+1] = prob.DA.Coords[c+1]
		xe[3*n+2] = prob.DA.Coords[c+2]
	}
}

// refMap evaluates the element map x(ξ) of the element with coordinates xe.
func refMap(xe *[81]float64, ref [3]float64) (p [3]float64) {
	var nb [27]float64
	fem.Q2Eval(ref[0], ref[1], ref[2], &nb)
	for n := 0; n < 27; n++ {
		for d := 0; d < 3; d++ {
			p[d] += nb[n] * xe[3*n+d]
		}
	}
	return p
}

func refInvertInElement(xe *[81]float64, x, y, z float64) (xi, et, ze float64, ok bool) {
	var nb [27]float64
	var gb [27][3]float64
	for it := 0; it < refNewtonIts; it++ {
		fem.Q2Eval(xi, et, ze, &nb)
		fem.Q2Grad(xi, et, ze, &gb)
		var px, py, pz float64
		var jmat [9]float64 // jmat[d*3+m] = ∂x_m/∂ξ_d
		for n := 0; n < 27; n++ {
			cx, cy, cz := xe[3*n], xe[3*n+1], xe[3*n+2]
			px += nb[n] * cx
			py += nb[n] * cy
			pz += nb[n] * cz
			for d := 0; d < 3; d++ {
				jmat[d*3] += gb[n][d] * cx
				jmat[d*3+1] += gb[n][d] * cy
				jmat[d*3+2] += gb[n][d] * cz
			}
		}
		rx, ry, rz := x-px, y-py, z-pz
		if rx*rx+ry*ry+rz*rz < refLocTol*refLocTol {
			return xi, et, ze, true
		}
		var inv [9]float64
		det := la.Invert3(&jmat, &inv)
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

func refLocate(prob *fem.Problem, x, y, z float64) (e int, xi, et, ze float64, found bool) {
	da := prob.DA
	ei, ej, ek := da.ElemIJK(refGuessElement(prob, x, y, z))
	var xe [81]float64
	for hop := 0; hop < refMaxWalkHop; hop++ {
		e = da.ElemID(ei, ej, ek)
		refGatherCoords(prob, e, &xe)
		xi, et, ze, _ = refInvertInElement(&xe, x, y, z)
		inX := math.Abs(xi) <= locBounds
		inY := math.Abs(et) <= locBounds
		inZ := math.Abs(ze) <= locBounds
		if inX && inY && inZ {
			return e, xi, et, ze, true
		}
		// Walk one element in each violated direction that can still move;
		// only if none can is the point outside the domain.
		moved := false
		step := func(v float64, idx, max int) (int, bool) {
			if v > locBounds && idx < max-1 {
				return idx + 1, true
			}
			if v < -locBounds && idx > 0 {
				return idx - 1, true
			}
			return idx, false
		}
		var m bool
		if !inX {
			if ei, m = step(xi, ei, da.Mx); m {
				moved = true
			}
		}
		if !inY {
			if ej, m = step(et, ej, da.My); m {
				moved = true
			}
		}
		if !inZ {
			if ek, m = step(ze, ek, da.Mz); m {
				moved = true
			}
		}
		if !moved {
			return e, xi, et, ze, false
		}
	}
	return e, xi, et, ze, false
}

func refGuessElement(prob *fem.Problem, x, y, z float64) int {
	da := prob.DA
	var min, max [3]float64
	min[0], min[1], min[2] = da.Coords[0], da.Coords[1], da.Coords[2]
	max = min
	for n := 1; n < da.NNodes(); n++ {
		for c := 0; c < 3; c++ {
			v := da.Coords[3*n+c]
			if v < min[c] {
				min[c] = v
			}
			if v > max[c] {
				max[c] = v
			}
		}
	}
	idx := func(v, lo, hi float64, m int) int {
		if hi <= lo {
			return 0
		}
		i := int(float64(m) * (v - lo) / (hi - lo))
		if i < 0 {
			i = 0
		}
		if i > m-1 {
			i = m - 1
		}
		return i
	}
	return da.ElemID(idx(x, min[0], max[0], da.Mx), idx(y, min[1], max[1], da.My), idx(z, min[2], max[2], da.Mz))
}

// columnProblem builds a column mesh the way the time loop does: a box
// (mesh.New), then two ALE updates of the max face of axis with a random
// velocity at every node, which leave a rough surface.
func columnProblem(rng *rand.Rand, mx, my, mz, axis int) *fem.Problem {
	da := mesh.New(mx, my, mz, -0.5, 1.5, 0, 1, 0.25, 1.25)
	vel := make([]float64, da.NVelDOF())
	for pass := 0; pass < 2; pass++ {
		for i := range vel {
			vel[i] = 0.2 * (2*rng.Float64() - 1)
		}
		mesh.UpdateFreeSurface(da, vel, 0.5, axis)
	}
	return fem.NewProblem(da, nil)
}

func elemIJK(da *mesh.DA, e int) (ijk [3]int) {
	ijk[0], ijk[1], ijk[2] = da.ElemIJK(e)
	return ijk
}

// elemExtent is the smallest extent of the element along an axis.
func elemExtent(xe *[81]float64) float64 {
	h := math.Inf(1)
	for d := 0; d < 3; d++ {
		lo, hi := xe[d], xe[d]
		for n := 1; n < 27; n++ {
			lo, hi = min(lo, xe[3*n+d]), max(hi, xe[3*n+d])
		}
		h = min(h, hi-lo)
	}
	return h
}

// TestLocateMatchesNewtonOracle: on random column meshes with rough
// surfaces, vertical axis 0, 1 and 2, for points inside elements, on their
// faces, edges and corners, and outside the domain, the closed form
//   - (a) returns a ξ that the element's own Q2 map takes to the point
//     within 1e-13·h;
//   - (b) finds what the Newton walk finds, in the same element unless the
//     point lies on a face the two elements share, and on a lateral face
//     in the element above it;
//   - (c) returns ξ within 1e-8 of the Newton's (which stops at 1e-10 on
//     the position, not on ξ).
func TestLocateMatchesNewtonOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for axis := 0; axis < 3; axis++ {
		prob := columnProblem(rng, 4, 3, 5, axis)
		cols, err := prob.DA.Columns()
		if err != nil {
			t.Fatal(err)
		}
		if cols.Vertical != axis {
			t.Fatalf("axis %d: the mesh's vertical axis is %d", axis, cols.Vertical)
		}
		da := prob.DA
		elems := [3]int{da.Mx, da.My, da.Mz}
		c := prob.Cursor(nil, nil)
		var found, faces, outside int
		var maxD float64
		check := func(what string, p [3]float64, e0 int, ref0 [3]float64) {
			t.Helper()
			e, xi, et, ze, ok := Locate(&c, p[0], p[1], p[2])
			we, wxi, wet, wze, wok := refLocate(prob, p[0], p[1], p[2])
			tag := fmt.Sprintf("axis %d, %s at %v (elem %d, ξ %v)", axis, what, p, e0, ref0)
			if ok != wok {
				t.Fatalf("%s: found %v, the Newton walk %v", tag, ok, wok)
			}
			if !ok {
				outside++
				return
			}
			found++
			var xe [81]float64
			refGatherCoords(prob, e, &xe)
			ref := [3]float64{xi, et, ze}
			q := refMap(&xe, ref)
			if r, h := math.Sqrt((q[0]-p[0])*(q[0]-p[0])+(q[1]-p[1])*(q[1]-p[1])+(q[2]-p[2])*(q[2]-p[2])), elemExtent(&xe); r > 1e-13*h {
				t.Fatalf("%s: residual %g through element %d's map at %v, h %g", tag, r, e, ref, h)
			}
			// The lateral tie-break: a point on a lateral face two elements
			// share is the upper element's, at ξ = -1.
			ijk, ijk0 := elemIJK(da, e), elemIJK(da, e0)
			for _, d := range cols.Lateral {
				if ref0[d] != -1 && ref0[d] != 1 {
					continue
				}
				want, wantRef := ijk0[d], -1.0
				if ref0[d] == 1 {
					if want < elems[d]-1 {
						want++
					} else {
						wantRef = 1
					}
				}
				if ijk[d] != want || math.Abs(ref[d]-wantRef) > 1e-12 {
					t.Fatalf("%s: on a lateral face, located in element %d at %v", tag, e, ref)
				}
			}
			if e != we {
				wijk := elemIJK(da, we)
				for d := 0; d < 3; d++ {
					if diff := ijk[d] - wijk[d]; diff != 0 && (diff*diff != 1 || math.Abs(ref[d]) < 1-1e-8) {
						t.Fatalf("%s: element %d at %v, the Newton walk %d at (%v,%v,%v): not a shared face",
							tag, e, ref, we, wxi, wet, wze)
					}
				}
				faces++
				return
			}
			d := max(math.Abs(xi-wxi), math.Abs(et-wet), math.Abs(ze-wze))
			if d > 1e-8 {
				t.Fatalf("%s: ξ %v, the Newton's (%v,%v,%v): |Δξ| %g", tag, ref, wxi, wet, wze, d)
			}
			maxD = max(maxD, d)
		}
		// pick is a reference coordinate: interior, or on the element's
		// boundary (faces, and edges and corners when several land there).
		pick := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 1
			case 1:
				return -1
			}
			return 2*rng.Float64() - 1
		}
		var xe [81]float64
		for trial := 0; trial < 400; trial++ {
			e := rng.Intn(da.NElements())
			refGatherCoords(prob, e, &xe)
			ref := [3]float64{pick(), pick(), pick()}
			p := refMap(&xe, ref)
			// The map puts a point of a lateral face within rounding of its
			// node line's coordinate; the tie-break is stated at that
			// coordinate.
			ijk := elemIJK(da, e)
			for l, d := range cols.Lateral {
				if ref[d] == -1 || ref[d] == 1 {
					p[d] = cols.Lines[l][2*ijk[d]+1+int(ref[d])]
				}
			}
			check("point", p, e, ref)
			// Beyond a boundary face of the domain, through the boundary
			// element's map: past the surface, below the bottom, or outside
			// a side.
			d := rng.Intn(3)
			out := ref
			if ijk[d] == elems[d]-1 {
				out[d] = 1.01 + rng.Float64()
			} else if ijk[d] == 0 {
				out[d] = -1.01 - rng.Float64()
			} else {
				continue
			}
			p = refMap(&xe, out)
			if _, _, _, _, ok := Locate(&c, p[0], p[1], p[2]); ok {
				t.Fatalf("axis %d: %v, beyond element %d's boundary face at %v, located", axis, p, e, out)
			}
			check("outside", p, e, out)
		}
		if found == 0 || faces == 0 || outside == 0 {
			t.Fatalf("axis %d: vacuous: %d found, %d on shared faces, %d outside", axis, found, faces, outside)
		}
		t.Logf("axis %d: %d found (%d in the neighbour across a face), %d outside; max |Δξ| %.2g", axis, found, faces, outside, maxD)
	}
}

// TestLocateRoundTrip: a point mapped from random reference coordinates of
// a random element of a column mesh locates in that element at those
// coordinates, to rounding, on every vertical axis.
func TestLocateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for axis := 0; axis < 3; axis++ {
		p := columnProblem(rng, 4, 4, 4, axis)
		c := p.Cursor(nil, nil)
		var xe [81]float64
		for trial := 0; trial < 200; trial++ {
			e := rng.Intn(p.DA.NElements())
			ref := [3]float64{rng.Float64()*1.9 - 0.95, rng.Float64()*1.9 - 0.95, rng.Float64()*1.9 - 0.95}
			refGatherCoords(p, e, &xe)
			x := refMap(&xe, ref)
			ge, gxi, get, gze, ok := Locate(&c, x[0], x[1], x[2])
			if !ok || ge != e {
				t.Fatalf("axis %d trial %d: located in %d (found %v), want %d", axis, trial, ge, ok, e)
			}
			if math.Abs(gxi-ref[0]) > 1e-12 || math.Abs(get-ref[1]) > 1e-12 || math.Abs(gze-ref[2]) > 1e-12 {
				t.Fatalf("axis %d trial %d: local coords (%v,%v,%v), want %v", axis, trial, gxi, get, gze, ref)
			}
		}
	}
}

// TestLocateFaceTieBreak pins the rule on meshes where every coordinate
// is a dyadic fraction, so that no rounding decides it: a point on a face
// two elements share is the upper element's at reference coordinate -1,
// the domain's upper faces are the last element's at +1 — on a uniform x
// line, and on a graded one whose proportional guess lands an element
// low.
func TestLocateFaceTieBreak(t *testing.T) {
	graded := mesh.New(3, 2, 4, 0, 1, 0, 1, 0, 2)
	line := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.75, 1} // elements [0,¼], [¼,½], [½,1]
	for n := 0; n < graded.NNodes(); n++ {
		i, _, _ := graded.NodeIJK(n)
		graded.Coords[3*n] = line[i]
	}
	for _, da := range []*mesh.DA{mesh.New(4, 2, 4, 0, 1, 0, 1, 0, 2), graded} {
		p := fem.NewProblem(da, nil)
		c := p.Cursor(nil, nil)
		for i := 0; i <= da.Mx; i++ {
			for k := 0; k <= da.Mz; k++ {
				x, z := da.Coords[3*da.NodeID(2*i, 0, 0)], float64(k)/2
				e, xi, et, ze, ok := Locate(&c, x, 0.5, z)
				wi, wk, wxi, wze := min(i, da.Mx-1), min(k, da.Mz-1), -1.0, -1.0
				if i == da.Mx {
					wxi = 1
				}
				if k == da.Mz {
					wze = 1
				}
				if want := da.ElemID(wi, 1, wk); !ok || e != want || xi != wxi || et != -1 || ze != wze {
					t.Fatalf("%d elements along x: (%v, 0.5, %v): element %d (found %v) at (%v,%v,%v), want %d at (%v,-1,%v)",
						da.Mx, x, z, e, ok, xi, et, ze, want, wxi, wze)
				}
			}
		}
	}
}

// TestLocateRefusesNonColumnMesh: on a sheared mesh the closed form does
// not hold, and Locate says so with the mesh's *mesh.ColumnError rather
// than locating anything.
func TestLocateRefusesNonColumnMesh(t *testing.T) {
	da := mesh.New(3, 3, 3, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) { return x + 0.1*y, y, z + 0.05*x*y })
	p := fem.NewProblem(da, nil)
	if _, err := da.Columns(); err == nil {
		t.Fatal("a sheared mesh passed as a column mesh")
	}
	c := p.Cursor(nil, nil)
	defer func() {
		var ce *mesh.ColumnError
		if err, _ := recover().(error); !errors.As(err, &ce) {
			t.Fatalf("Locate on a sheared mesh: recovered %v, want a *mesh.ColumnError", err)
		}
	}()
	Locate(&c, 0.5, 0.5, 0.5)
}
