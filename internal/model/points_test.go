package model_test

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/rheology"
	"ptatin3d/internal/thermal"
)

// The four functions below are the evaluators of a material point's state
// as they were before the element cursor: each gathers what it needs of
// the point's element from the global arrays, per point. They are the
// oracle of TestElementCursorBitwise and TestPlasticPassSkipsNonYielding.

func refVelocityAt(prob *fem.Problem, u la.Vec, e int, xi, et, ze float64) (vx, vy, vz float64) {
	var nb [27]float64
	fem.Q2Eval(xi, et, ze, &nb)
	em := prob.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		vx += nb[n] * u[d]
		vy += nb[n] * u[d+1]
		vz += nb[n] * u[d+2]
	}
	return
}

func refStrainRateAtPoint(p *fem.Problem, u la.Vec, e int, xi, et, ze float64) float64 {
	var nb [27]float64
	var gb [27][3]float64
	fem.Q2EvalGrad(xi, et, ze, &nb, &gb)
	em := p.Emap[27*e : 27*e+27]
	var jmat [9]float64
	var gref [9]float64 // ∂u_a/∂ξ_d
	for n := 0; n < 27; n++ {
		c := 3 * int(em[n])
		cx, cy, cz := p.DA.Coords[c], p.DA.Coords[c+1], p.DA.Coords[c+2]
		ux, uy, uz := u[c], u[c+1], u[c+2]
		for d := 0; d < 3; d++ {
			g := gb[n][d]
			jmat[d*3] += g * cx
			jmat[d*3+1] += g * cy
			jmat[d*3+2] += g * cz
			gref[0*3+d] += g * ux
			gref[1*3+d] += g * uy
			gref[2*3+d] += g * uz
		}
	}
	var inv [9]float64
	la.Invert3(&jmat, &inv)
	var gp [9]float64
	for a := 0; a < 3; a++ {
		for m := 0; m < 3; m++ {
			gp[a*3+m] = gref[a*3]*inv[m*3] + gref[a*3+1]*inv[m*3+1] + gref[a*3+2]*inv[m*3+2]
		}
	}
	dxx, dyy, dzz := gp[0], gp[4], gp[8]
	dxy := 0.5 * (gp[1] + gp[3])
	dxz := 0.5 * (gp[2] + gp[6])
	dyz := 0.5 * (gp[5] + gp[7])
	ii := 0.5 * (dxx*dxx + dyy*dyy + dzz*dzz + 2*(dxy*dxy+dxz*dxz+dyz*dyz))
	return math.Sqrt(ii)
}

// refEvalPressure includes fem's elemCenterScale and pressureBasisAt,
// which EvalPressure ran per point.
func refEvalPressure(p *fem.Problem, pv la.Vec, e int, x, y, z float64) float64 {
	var xe [81]float64
	em := p.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		c := 3 * int(em[n])
		xe[3*n], xe[3*n+1], xe[3*n+2] = p.DA.Coords[c], p.DA.Coords[c+1], p.DA.Coords[c+2]
	}
	var ctr, hinv [3]float64
	ctr[0], ctr[1], ctr[2] = xe[3*13], xe[3*13+1], xe[3*13+2]
	for c := 0; c < 3; c++ {
		min, max := xe[c], xe[c]
		for n := 1; n < 27; n++ {
			v := xe[3*n+c]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		h := 0.5 * (max - min)
		if h == 0 {
			h = 1
		}
		hinv[c] = 1 / h
	}
	psi := [4]float64{1, (x - ctr[0]) * hinv[0], (y - ctr[1]) * hinv[1], (z - ctr[2]) * hinv[2]}
	return psi[0]*pv[4*e] + psi[1]*pv[4*e+1] + psi[2]*pv[4*e+2] + psi[3]*pv[4*e+3]
}

func refTemperatureAt(p *fem.Problem, T []float64, e int, xi, et, ze float64) float64 {
	var vs [8]int32
	var n1 [8]float64
	p.DA.ElemVertices(e, &vs)
	fem.Q1Eval(xi, et, ze, &n1)
	var s float64
	for c := 0; c < 8; c++ {
		s += n1[c] * T[vs[c]]
	}
	return s
}

// refPointState is Model.pointState on the per-point evaluators.
func refPointState(m *model.Model, pts *mpm.Points, x la.Vec, temp []float64, i int) rheology.State {
	e := int(pts.Elem[i])
	st := rheology.State{PlasticStrain: pts.Plastic[i]}
	if e < 0 {
		return st
	}
	nu := m.Prob.DA.NVelDOF()
	st.StrainRateII = refStrainRateAtPoint(m.Prob, x[:nu], e, pts.Xi[i], pts.Et[i], pts.Ze[i])
	st.Pressure = refEvalPressure(m.Prob, x[nu:], e, pts.X[i], pts.Y[i], pts.Z[i])
	if temp != nil {
		st.Temperature = refTemperatureAt(m.Prob, temp, e, pts.Xi[i], pts.Et[i], pts.Ze[i])
	}
	return st
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestElementCursorBitwise: on the rift's deformed mesh, with its solved
// velocity, pressure and temperature, the four evaluators read through an
// element cursor return the bits of their per-point forms — with the
// points visited in a shuffled order, so that nearly every seek gathers a
// new element, and in storage order, where most find it held.
func TestElementCursorBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("runs without -short, and under -race in check.sh's point-loops stage")
	}
	m := compileSmall(t, "rift", 2)
	runSteps(t, m, 1)
	pts, prob := m.Points, m.Prob
	nu := prob.DA.NVelDOF()
	u, pv := m.X[:nu], m.X[nu:]
	order := rand.New(rand.NewSource(19)).Perm(pts.Len())
	for pass, shuffled := range []bool{true, false} {
		c := prob.Cursor(u, m.Temp)
		for k, i := range order {
			if !shuffled {
				i = k
			}
			e, xi, et, ze := int(pts.Elem[i]), pts.Xi[i], pts.Et[i], pts.Ze[i]
			c.Seek(e)
			vx, vy, vz := mpm.VelocityAt(&c, xi, et, ze)
			wx, wy, wz := refVelocityAt(prob, u, e, xi, et, ze)
			if !sameBits(vx, wx) || !sameBits(vy, wy) || !sameBits(vz, wz) {
				t.Fatalf("pass %d point %d: VelocityAt (%v,%v,%v), want (%v,%v,%v)", pass, i, vx, vy, vz, wx, wy, wz)
			}
			if got, want := fem.StrainRateAtPoint(&c, xi, et, ze), refStrainRateAtPoint(prob, u, e, xi, et, ze); !sameBits(got, want) {
				t.Fatalf("pass %d point %d: StrainRateAtPoint %v, want %v", pass, i, got, want)
			}
			if got, want := fem.EvalPressure(&c, pv, pts.X[i], pts.Y[i], pts.Z[i]), refEvalPressure(prob, pv, e, pts.X[i], pts.Y[i], pts.Z[i]); !sameBits(got, want) {
				t.Fatalf("pass %d point %d: EvalPressure %v, want %v", pass, i, got, want)
			}
			if got, want := thermal.TemperatureAt(&c, xi, et, ze), refTemperatureAt(prob, m.Temp, e, xi, et, ze); !sameBits(got, want) {
				t.Fatalf("pass %d point %d: TemperatureAt %v, want %v", pass, i, got, want)
			}
		}
		hits, misses := c.Stats[fem.CursorHits], c.Stats[fem.CursorMisses]
		if shuffled == (hits > misses) {
			t.Fatalf("pass %d (shuffled %v): %d hits, %d misses", pass, shuffled, hits, misses)
		}
	}
}

// TestPlasticPassSkipsNonYielding: StepForward's plastic-strain pass,
// which visits only the points of lithologies that can yield, leaves
// Points.Plastic as the pass over every point does — on the rift, whose
// mantle has no plasticity and whose crusts have. The all-points pass is
// replayed from the state a step solved for on the points, temperature
// and mesh the step started from.
func TestPlasticPassSkipsNonYielding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs without -short, and under -race in check.sh's point-loops stage")
	}
	m := compileSmall(t, "rift", 2)
	var plastic, ductile, yielded int
	for step := 0; step < 2; step++ {
		pts := m.Points
		before := &mpm.Points{
			X: clone(pts.X), Y: clone(pts.Y), Z: clone(pts.Z), Litho: clone(pts.Litho), Plastic: clone(pts.Plastic),
			Elem: clone(pts.Elem), Xi: clone(pts.Xi), Et: clone(pts.Et), Ze: clone(pts.Ze),
		}
		temp, coords := clone(m.Temp), clone(m.Prob.DA.Coords)
		runSteps(t, m, 1)
		dt := m.Stats[len(m.Stats)-1].Dt

		moved := m.Prob.DA.Coords
		m.Prob.DA.Coords = coords
		want := before.Plastic
		for i := range want {
			l := &m.Lith[before.Litho[i]]
			if l.Plastic {
				plastic++
			} else {
				ductile++
			}
			st := refPointState(m, before, m.X, temp, i)
			if _, yielding := l.EffectiveViscosity(st); yielding {
				want[i] += dt * st.StrainRateII
				yielded++
			}
		}
		m.Prob.DA.Coords = moved

		// No point left the domain in these steps, so storage order is
		// unchanged and population control only appended.
		if m.Points.Len() < len(want) {
			t.Fatalf("step %d: %d points, had %d", step, m.Points.Len(), len(want))
		}
		for i := range want {
			if !sameBits(m.Points.Plastic[i], want[i]) {
				t.Fatalf("step %d point %d (lithology %d): plastic strain %v, want %v", step, i, before.Litho[i], m.Points.Plastic[i], want[i])
			}
		}
	}
	if plastic == 0 || ductile == 0 || yielded == 0 {
		t.Fatalf("vacuous: %d points that can yield, %d that cannot, %d yielded", plastic, ductile, yielded)
	}
}

func clone[T any](s []T) []T { return append([]T(nil), s...) }
