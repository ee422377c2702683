package fem

import (
	"math"

	"ptatin3d/internal/la"
)

// StrainRateAtQP evaluates, for the (unmasked) velocity state u, the
// physical strain-rate tensor D(u) and its second invariant
// ε̇_II = √(½ D:D) at every quadrature point. d6 receives the six unique
// components per point in the order (xx, yy, zz, xy, xz, yz); either
// output may be nil. Lengths: d6 = 6·NQP·nel, eII = NQP·nel.
func StrainRateAtQP(p *Problem, u la.Vec, d6, eII []float64) {
	nel := p.DA.NElements()
	if d6 != nil && len(d6) != 6*NQP*nel {
		panic("fem: StrainRateAtQP d6 length mismatch")
	}
	if eII != nil && len(eII) != NQP*nel {
		panic("fem: StrainRateAtQP eII length mismatch")
	}
	geo := p.geom()
	p.forEachElement(func(e int) {
		var ue [81]float64
		em := p.Emap[27*e : 27*e+27]
		for n := 0; n < 27; n++ {
			d := 3 * int(em[n])
			ue[3*n] = u[d]
			ue[3*n+1] = u[d+1]
			ue[3*n+2] = u[d+2]
		}
		var ks kernScratch
		ug0, ug1, ug2 := &ks.ug0, &ks.ug1, &ks.ug2
		tensorGrads64(&ue, ug0, ug1, ug2, &ks.kernScratchG)
		for q := 0; q < NQP; q++ {
			jinv, _ := geomAt(geo, e, q)
			// Physical velocity gradient Gp[a][m].
			var gp [9]float64
			for a := 0; a < 3; a++ {
				g0, g1, g2 := ug0[q*3+a], ug1[q*3+a], ug2[q*3+a]
				gp[a*3] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				gp[a*3+1] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				gp[a*3+2] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
			}
			dxx := gp[0]
			dyy := gp[4]
			dzz := gp[8]
			dxy := 0.5 * (gp[1] + gp[3])
			dxz := 0.5 * (gp[2] + gp[6])
			dyz := 0.5 * (gp[5] + gp[7])
			if d6 != nil {
				o := 6 * (NQP*e + q)
				d6[o] = dxx
				d6[o+1] = dyy
				d6[o+2] = dzz
				d6[o+3] = dxy
				d6[o+4] = dxz
				d6[o+5] = dyz
			}
			if eII != nil {
				ii := 0.5 * (dxx*dxx + dyy*dyy + dzz*dzz + 2*(dxy*dxy+dxz*dxz+dyz*dyz))
				eII[NQP*e+q] = math.Sqrt(ii)
			}
		}
	})
}

// StrainRateAtPoint evaluates ε̇_II of the cursor's velocity state at
// reference position (xi,et,ze) of the element it holds — the
// material-point state feeding the flow laws (paper §II-C).
func StrainRateAtPoint(c *ElemCursor, xi, et, ze float64) float64 {
	var nb [27]float64
	var gb [27][3]float64
	Q2EvalGrad(xi, et, ze, &nb, &gb)
	var jmat [9]float64
	var gref [9]float64 // ∂u_a/∂ξ_d
	for n := 0; n < 27; n++ {
		cx, cy, cz := c.Xe[3*n], c.Xe[3*n+1], c.Xe[3*n+2]
		ux, uy, uz := c.Ue[3*n], c.Ue[3*n+1], c.Ue[3*n+2]
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
	// jinv[d][m] = inv[m][d]; Gp[a][m] = Σ_d gref[a][d]·jinv[d][m].
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

// EvalPressure evaluates the P1disc pressure field pv at the physical
// point (x,y,z) inside the element the cursor holds.
func EvalPressure(c *ElemCursor, pv la.Vec, x, y, z float64) float64 {
	fr := c.frame()
	var psi [4]float64
	pressureBasisAt(x, y, z, (*[3]float64)(fr[13:]), (*[3]float64)(fr[16:]), &psi)
	e := c.E
	return psi[0]*pv[4*e] + psi[1]*pv[4*e+1] + psi[2]*pv[4*e+2] + psi[3]*pv[4*e+3]
}
