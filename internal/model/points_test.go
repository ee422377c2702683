package model_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/rheology"
	"ptatin3d/internal/scenario"
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
	var gb [27][3]float64
	fem.Q2Grad(xi, et, ze, &gb)
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

func sameBitsSlice(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}

// TestPointCoefficientsMatchFullState: UpdateCoefficients evaluates only
// the state fields a point's lithology reads; the η, ρ and η′/ε̇ it gives
// every point are, bit for bit, those of the full state (refPointState,
// by UpdateCoefficients' own formulas) — on every registered spec, and on
// the rift solved by Newton, at the state one step solved for.
func TestPointCoefficientsMatchFullState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs without -short, and under -race in check.sh's point-loops stage")
	}
	type run struct {
		name   string
		newton bool
	}
	runs := []run{{"rift", true}}
	for _, name := range scenario.Names() {
		runs = append(runs, run{name, false})
	}
	var partial, full int
	for _, r := range runs {
		m := compileSmall(t, r.name, 2)
		m.UseNewton = r.newton
		runSteps(t, m, 1)
		pts := m.Points
		for _, wantDeriv := range []bool{false, true} {
			m.UpdateCoefficients(m.X, wantDeriv)
			eta, rho, fac := m.PointCoefficients()
			for i := 0; i < pts.Len(); i++ {
				l := &m.Lith[pts.Litho[i]]
				if l.Reads() == (rheology.Fields{StrainRate: true, Pressure: true, Temperature: true}) {
					full++
				} else {
					partial++
				}
				st := refPointState(m, pts, m.X, m.Temp, i)
				wantEta, _ := l.EffectiveViscosity(st)
				if wantDeriv {
					var d float64
					wantEta, d = l.EffectiveViscosityDerivative(st)
					eII := st.StrainRateII
					if eII < 1e-12 {
						eII = 1e-12
					}
					if lo := -0.9 * wantEta / eII; d < lo {
						d = lo
					}
					if !sameBits(fac[i], d/eII) {
						t.Fatalf("%s newton=%v point %d (%s): η′/ε̇ %v, full state %v", r.name, r.newton, i, l.Name, fac[i], d/eII)
					}
				}
				if !sameBits(eta[i], wantEta) || !sameBits(rho[i], l.Density(st)) {
					t.Fatalf("%s newton=%v derivative=%v point %d (%s): η, ρ = %v, %v; full state %v, %v",
						r.name, r.newton, wantDeriv, i, l.Name, eta[i], rho[i], wantEta, l.Density(st))
				}
			}
		}
	}
	if partial == 0 || full == 0 {
		t.Fatalf("vacuous: %d point evaluations skipped a field, %d read all three", partial, full)
	}
}

// TestElementCursorBitwise: on the rift's deformed mesh, with its solved
// velocity, pressure and temperature, the four evaluators read through an
// element cursor return the bits of their per-point forms — with the
// points visited in a shuffled order, so that nearly every seek gathers a
// new element, and in storage order, where most find it held. A seek to
// the element visited just before is a hit, any other a miss.
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
		hits, misses, held := 0, 0, -1
		for k, i := range order {
			if !shuffled {
				i = k
			}
			e, xi, et, ze := int(pts.Elem[i]), pts.Xi[i], pts.Et[i], pts.Ze[i]
			if e == held {
				hits++
			} else {
				misses++
			}
			held = e
			c.Seek(e)
			vx, vy, vz := mpm.VelocityAt(&c, xi, et, ze)
			wx, wy, wz := refVelocityAt(prob, u, e, xi, et, ze)
			if !sameBits(vx, wx) || !sameBits(vy, wy) || !sameBits(vz, wz) {
				t.Fatalf("pass %d point %d: VelocityAt (%v,%v,%v), want (%v,%v,%v)", pass, i, vx, vy, vz, wx, wy, wz)
			}
			var inv [9]float64
			fem.PointJacobianInverse(&c, xi, et, ze, &inv)
			if got, want := fem.StrainRateAtPoint(&c, xi, et, ze, &inv), refStrainRateAtPoint(prob, u, e, xi, et, ze); !sameBits(got, want) {
				t.Fatalf("pass %d point %d: StrainRateAtPoint %v, want %v", pass, i, got, want)
			}
			if got, want := fem.EvalPressure(&c, pv, pts.X[i], pts.Y[i], pts.Z[i]), refEvalPressure(prob, pv, e, pts.X[i], pts.Y[i], pts.Z[i]); !sameBits(got, want) {
				t.Fatalf("pass %d point %d: EvalPressure %v, want %v", pass, i, got, want)
			}
			if got, want := thermal.TemperatureAt(&c, xi, et, ze), refTemperatureAt(prob, m.Temp, e, xi, et, ze); !sameBits(got, want) {
				t.Fatalf("pass %d point %d: TemperatureAt %v, want %v", pass, i, got, want)
			}
		}
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

// TestPointInversesFollowPointsAndMesh: the inverse Jacobians a solve's
// first coefficient update computes and its later updates reuse are those
// of the points and the mesh as they are at that solve — after a step has
// advected the points, moved the free surface and relocated the points
// under it, and after Restore has put back an earlier state. The η every
// point got at the solve's last update, which read them, is bit for bit
// what a model freshly compiled and restored to the same state evaluates
// at the same coupled state, and what the per-point formulas give.
func TestPointInversesFollowPointsAndMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs without -short, and under -race in check.sh's point-loops stage")
	}
	m := compileSmall(t, "rift", 2)
	runSteps(t, m, 1)
	start := m.Checkpoint()
	check := func(when string) {
		t.Helper()
		fresh := compileSmall(t, "rift", 2)
		if err := fresh.Restore(m.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		res, err := m.SolveStokes()
		if err != nil {
			t.Fatal(err)
		}
		if res.ResidualEvals < 2 {
			t.Fatalf("%s: %d residual evaluations: no update reused the inverses", when, res.ResidualEvals)
		}
		x := m.CoeffState()
		got, _, _ := m.PointCoefficients()
		fresh.UpdateCoefficients(x, false)
		want, _, _ := fresh.PointCoefficients()
		if len(got) != m.Points.Len() || len(want) != len(got) {
			t.Fatalf("%s: η of %d points, a fresh model's of %d; %d points", when, len(got), len(want), m.Points.Len())
		}
		for i := range want {
			l := &m.Lith[m.Points.Litho[i]]
			ref, _ := l.EffectiveViscosity(refPointState(m, m.Points, x, m.Temp, i))
			if !sameBits(got[i], want[i]) || !sameBits(got[i], ref) {
				t.Fatalf("%s: point %d: η %v, a fresh model's %v, the per-point formulas' %v", when, i, got[i], want[i], ref)
			}
		}
	}
	runSteps(t, m, 1)
	check("after a step")
	if err := m.Restore(start); err != nil {
		t.Fatal(err)
	}
	check("after Restore")
}

// TestNoInversesWithoutStrainRate: a model no lithology of which reads
// ε̇_II stores no inverse Jacobians through a step; one that reads it
// stores 9 per point.
func TestNoInversesWithoutStrainRate(t *testing.T) {
	if testing.Short() {
		t.Skip("steps every registered spec")
	}
	var without []string
	for _, name := range scenario.Names() {
		m := compileSmall(t, name, 2)
		reads := false
		for i := range m.Lith {
			reads = reads || m.Lith[i].Reads().StrainRate
		}
		runSteps(t, m, 1)
		switch inv := m.PointInverses(); {
		case !reads && inv != nil:
			t.Fatalf("%s: no lithology reads ε̇_II, yet %d floats of inverse Jacobians", name, len(inv))
		case reads && len(inv) < 9*m.Points.Len():
			t.Fatalf("%s: %d floats of inverse Jacobians for %d points", name, len(inv), m.Points.Len())
		case !reads:
			without = append(without, name)
		}
	}
	for _, name := range []string{"sinker", "sinker-swarm", "rayleigh-taylor"} {
		if !slices.Contains(without, name) {
			t.Fatalf("%s reads ε̇_II (specs without: %v)", name, without)
		}
	}
}

func clone[T any](s []T) []T { return append([]T(nil), s...) }
