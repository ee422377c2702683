package fem

import (
	"math"

	"ptatin3d/internal/la"
)

// MomentumRHSFunc computes the load vector of a pointwise body-force
// density, b_i = ∫ f·N_i dV, with f evaluated at the physical quadrature
// points. This is the manufactured-solution companion of MomentumRHS
// (which hard-wires f = ρ·g); constrained rows are zeroed identically.
func MomentumRHSFunc(p *Problem, f func(x, y, z float64) (fx, fy, fz float64), b la.Vec) {
	if len(b) != p.DA.NVelDOF() {
		panic("fem: MomentumRHSFunc length mismatch")
	}
	p.apply(elemPass{coords: true, kern: func(e int, _, xe, be *[81]float64, _ *arena) {
		*be = [81]float64{}
		var jinv [9]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(xe, q, &jinv)
			var x, y, z float64
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				x += nn * xe[3*n]
				y += nn * xe[3*n+1]
				z += nn * xe[3*n+2]
			}
			fx, fy, fz := f(x, y, z)
			w := W3[q] * detJ
			for n := 0; n < 27; n++ {
				s := N27[q][n] * w
				be[3*n] += s * fx
				be[3*n+1] += s * fy
				be[3*n+2] += s * fz
			}
		}
	}}, zeroRows, nil, b)
}

// VelocityL2Error returns ‖u_h − u*‖_L2 over the mesh by quadrature,
// where u holds the Q2 velocity field (boundary values included) and
// exact evaluates the manufactured solution at physical coordinates.
func VelocityL2Error(p *Problem, u la.Vec, exact func(x, y, z float64) (ux, uy, uz float64)) float64 {
	errs := make([]float64, p.DA.NElements())
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		em := p.Emap[27*e : 27*e+27]
		var jinv [9]float64
		var s float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(&xe, q, &jinv)
			var x, y, z, uh, vh, wh float64
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				x += nn * xe[3*n]
				y += nn * xe[3*n+1]
				z += nn * xe[3*n+2]
				d := 3 * int(em[n])
				uh += nn * u[d]
				vh += nn * u[d+1]
				wh += nn * u[d+2]
			}
			ux, uy, uz := exact(x, y, z)
			dx, dy, dz := uh-ux, vh-uy, wh-uz
			s += W3[q] * detJ * (dx*dx + dy*dy + dz*dz)
		}
		errs[e] = s
	})
	var total float64
	for _, v := range errs {
		total += v
	}
	return math.Sqrt(total)
}

// PressureL2Error returns min_c ‖p_h − p* − c‖_L2 — the pressure error
// modulo the constant nullspace left by an all-Dirichlet velocity
// boundary. pv holds the P1disc coefficients (4 per element, physical
// basis) and exact the manufactured pressure.
func PressureL2Error(p *Problem, pv la.Vec, exact func(x, y, z float64) float64) float64 {
	nel := p.DA.NElements()
	// Pass 1: volume-weighted mean of (p_h − p*), per element.
	type acc struct{ diff, vol float64 }
	accs := make([]acc, nel)
	eval := func(e int, xe *[81]float64, q int, jinv *[9]float64, ctr, hinv *[3]float64) (d, w float64) {
		detJ := jacobianAt(xe, q, jinv)
		var x, y, z float64
		for n := 0; n < 27; n++ {
			nn := N27[q][n]
			x += nn * xe[3*n]
			y += nn * xe[3*n+1]
			z += nn * xe[3*n+2]
		}
		var psi [4]float64
		pressureBasisAt(x, y, z, ctr, hinv, &psi)
		ph := pv[4*e]*psi[0] + pv[4*e+1]*psi[1] + pv[4*e+2]*psi[2] + pv[4*e+3]*psi[3]
		return ph - exact(x, y, z), W3[q] * detJ
	}
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		var jinv [9]float64
		for q := 0; q < NQP; q++ {
			d, w := eval(e, &xe, q, &jinv, &ctr, &hinv)
			accs[e].diff += w * d
			accs[e].vol += w
		}
	})
	var meanDiff, vol float64
	for _, a := range accs {
		meanDiff += a.diff
		vol += a.vol
	}
	meanDiff /= vol
	// Pass 2: L2 norm of the mean-shifted difference.
	errs := make([]float64, nel)
	p.forEachElement(func(e int) {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		var jinv [9]float64
		var s float64
		for q := 0; q < NQP; q++ {
			d, w := eval(e, &xe, q, &jinv, &ctr, &hinv)
			d -= meanDiff
			s += w * d * d
		}
		errs[e] = s
	})
	var total float64
	for _, v := range errs {
		total += v
	}
	return math.Sqrt(total)
}
