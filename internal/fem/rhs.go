package fem

import "ptatin3d/internal/la"

// MomentumRHS computes the body-force load vector of the momentum
// equation, F_i = +∫ ρ·g·N_i dV, into b. This is the standard
// "∇·σ + ρg = 0" buoyancy convention: with g pointing down, denser
// material is pulled down. (Read literally, the signs of Eq. (1)/(10) in
// the paper would reverse this; the paper's own results — dense spheres
// sedimenting — require the convention used here.) Constrained rows are
// zeroed: the solvers work in residual-correction form, so boundary
// values enter through the state, never the load.
func MomentumRHS(p *Problem, b la.Vec) {
	if len(b) != p.DA.NVelDOF() {
		panic("fem: MomentumRHS length mismatch")
	}
	g := p.Gravity
	geo := p.geom()
	p.apply(elemPass{kern: func(e int, _, _, be *[81]float64, _ *arena) {
		*be = [81]float64{}
		for q := 0; q < NQP; q++ {
			_, detJ := geomAt(geo, e, q)
			w := W3[q] * detJ * p.Rho[NQP*e+q]
			f0, f1, f2 := w*g[0], w*g[1], w*g[2]
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				be[3*n] += nn * f0
				be[3*n+1] += nn * f1
				be[3*n+2] += nn * f2
			}
		}
	}}, zeroRows, nil, b)
}
