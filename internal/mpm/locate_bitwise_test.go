package mpm_test

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/scenario"
)

// The functions below are point location as it was before the element
// frames and the cursor: every Newton iteration, the first included,
// evaluates basis, gradient, Jacobian and inverse from coordinates
// gathered per call, and a walk without a guess scans every node for the
// bounding box. They are the oracle of TestLocateSeededBitwise.

const (
	refLocTol     = 1e-10
	refLocBounds  = 1.0 + 1e-8
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

func refInvertInElement(xe *[81]float64, x, y, z float64) (xi, et, ze float64, ok bool) {
	var nb [27]float64
	var gb [27][3]float64
	for it := 0; it < refNewtonIts; it++ {
		fem.Q2EvalGrad(xi, et, ze, &nb, &gb)
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
		xi = refClamp(xi, -3, 3)
		et = refClamp(et, -3, 3)
		ze = refClamp(ze, -3, 3)
	}
	return xi, et, ze, false
}

func refClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func refLocate(prob *fem.Problem, x, y, z float64, eGuess int) (e int, xi, et, ze float64, found bool) {
	da := prob.DA
	if eGuess < 0 || eGuess >= da.NElements() {
		eGuess = refGuessElement(prob, x, y, z)
	}
	ei, ej, ek := da.ElemIJK(eGuess)
	var xe [81]float64
	for hop := 0; hop < refMaxWalkHop; hop++ {
		e = da.ElemID(ei, ej, ek)
		refGatherCoords(prob, e, &xe)
		xi, et, ze, _ = refInvertInElement(&xe, x, y, z)
		inX := math.Abs(xi) <= refLocBounds
		inY := math.Abs(et) <= refLocBounds
		inZ := math.Abs(ze) <= refLocBounds
		if inX && inY && inZ {
			return e, xi, et, ze, true
		}
		moved := false
		step := func(v float64, idx, max int) (int, bool) {
			if v > refLocBounds && idx < max-1 {
				return idx + 1, true
			}
			if v < -refLocBounds && idx > 0 {
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

// TestLocateSeededBitwise: Locate, which starts Newton from the element's
// stored first iterate, tests convergence on the position alone and reads
// the bounding box from the frame store, returns the element, ξ and found
// of the full-evaluation walk, bit for bit — on a uniform, a sheared and a
// free-surface-deformed mesh (rift -small after 3 steps), for points
// inside elements, on their faces, edges and corners, outside the domain,
// and for every kind of guess including none.
func TestLocateSeededBitwise(t *testing.T) {
	uniform := fem.NewProblem(mesh.New(4, 3, 5, 0, 2, 0, 1, -1, 1), nil)
	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.3*y + 0.05*math.Sin(math.Pi*y)*math.Sin(math.Pi*z), y + 0.04*math.Sin(math.Pi*x), z + 0.2*x*y
	})
	sheared := fem.NewProblem(da, nil)

	spec, err := scenario.Get("rift")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := m.StepForward(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name string
		prob *fem.Problem
	}{{"uniform", uniform}, {"sheared", sheared}, {"rift", m.Prob}} {
		prob := tc.prob
		nel := prob.DA.NElements()
		rng := rand.New(rand.NewSource(19))
		c := prob.Cursor(nil, nil)
		check := func(x, y, z float64, guess int) {
			t.Helper()
			we, wxi, wet, wze, wok := refLocate(prob, x, y, z, guess)
			e, xi, et, ze, ok := mpm.Locate(&c, x, y, z, guess)
			if e != we || ok != wok || math.Float64bits(xi) != math.Float64bits(wxi) ||
				math.Float64bits(et) != math.Float64bits(wet) || math.Float64bits(ze) != math.Float64bits(wze) {
				t.Fatalf("%s: (%v,%v,%v) from %d: got elem %d ξ (%v,%v,%v) found %v, want %d (%v,%v,%v) %v",
					tc.name, x, y, z, guess, e, xi, et, ze, ok, we, wxi, wet, wze, wok)
			}
		}
		// ref picks a reference coordinate: interior, or on the boundary
		// of the element (faces, and edges and corners when several
		// components land there).
		ref := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 1
			case 1:
				return -1
			}
			return 2*rng.Float64() - 1
		}
		var xe [81]float64
		var nb [27]float64
		for trial := 0; trial < 400; trial++ {
			e := rng.Intn(nel)
			refGatherCoords(prob, e, &xe)
			fem.Q2Eval(ref(), ref(), ref(), &nb)
			var x, y, z float64
			for n := 0; n < 27; n++ {
				x += nb[n] * xe[3*n]
				y += nb[n] * xe[3*n+1]
				z += nb[n] * xe[3*n+2]
			}
			check(x, y, z, e)
			check(x, y, z, rng.Intn(nel))
			check(x, y, z, -1)
			// Pushed out of the domain, or at least out of the element.
			s := 1 + 4*rng.Float64()
			check(s*x+1, y, z, e)
			check(x, y-s, s*z, -1)
		}
		if tc.prob == m.Prob {
			for i := 0; i < m.Points.Len(); i++ {
				check(m.Points.X[i], m.Points.Y[i], m.Points.Z[i], int(m.Points.Elem[i]))
			}
		}
		t.Logf("%s: %v %v", tc.name, fem.PointStatNames, c.Stats)
	}
}
