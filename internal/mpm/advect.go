package mpm

import (
	"math"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// VelocityAt interpolates the cursor's Q2 velocity field at reference
// position (xi,et,ze) of the element it holds.
func VelocityAt(c *fem.ElemCursor, xi, et, ze float64) (vx, vy, vz float64) {
	var nb [27]float64
	fem.Q2Eval(xi, et, ze, &nb)
	for n := 0; n < 27; n++ {
		vx += nb[n] * c.Ue[3*n]
		vy += nb[n] * c.Ue[3*n+1]
		vz += nb[n] * c.Ue[3*n+2]
	}
	return
}

// AdvectRK2 advances every located point through the velocity field u by
// one explicit midpoint (RK2) step of size dt, then relocates all points,
// all on workers workers. Points advected out of the domain are reported
// (outflow handling / migration is the caller's job, per §II-D).
// Unlocated points are left in place.
func AdvectRK2(prob *fem.Problem, u la.Vec, dt float64, pts *Points, workers int) (lost []int) {
	cur := prob.Cursor(u, nil)
	par.For(workers, pts.Len(), func(lo, hi int) {
		c := cur
		for i := lo; i < hi; i++ {
			e := int(pts.Elem[i])
			if e < 0 {
				continue
			}
			c.Seek(e)
			vx, vy, vz := VelocityAt(&c, pts.Xi[i], pts.Et[i], pts.Ze[i])
			// Locate the midpoint and evaluate the velocity there; if it
			// leaves the domain keep the stage-1 velocity (Euler).
			mx, my, mz := pts.X[i]+0.5*dt*vx, pts.Y[i]+0.5*dt*vy, pts.Z[i]+0.5*dt*vz
			if me, xi, et, ze, ok := Locate(&c, mx, my, mz); ok {
				c.Seek(me)
				vx, vy, vz = VelocityAt(&c, xi, et, ze)
			}
			pts.X[i] += dt * vx
			pts.Y[i] += dt * vy
			pts.Z[i] += dt * vz
		}
	})
	return locateAll(prob, pts, workers)
}

// MaxVelocity returns the maximum nodal speed of u — the CFL building
// block for time-step selection.
func MaxVelocity(u la.Vec) float64 {
	var m float64
	for i := 0; i+2 < len(u); i += 3 {
		s := u[i]*u[i] + u[i+1]*u[i+1] + u[i+2]*u[i+2]
		if s > m {
			m = s
		}
	}
	return math.Sqrt(m)
}
