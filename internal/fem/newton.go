package fem

import "ptatin3d/internal/la"

// NewtonOp is the Newton-linearized viscous operator of paper §III-A.
// For an effective viscosity depending on the strain-rate second
// invariant, η = η̂(ε̇_II), the Newton linearization adds a rank-one
// anisotropic term to the Picard operator:
//
//	δτ = 2η·D(δu) + (η′/ε̇_II)·(D(u):D(δu))·D(u)
//
// This flattening term makes the coefficient tensor anisotropic and is
// hostile to multigrid smoothers, so — exactly as the paper prescribes —
// it is applied only inside the Krylov matvec; the preconditioner keeps
// the Picard operator. Setup data (the current strain-rate tensor and
// η′/ε̇_II per quadrature point) comes from StrainRateAtQP and the
// rheology's EffectiveViscosityDerivative.
type NewtonOp struct {
	Base *TensorOp
	// D6 holds the strain-rate of the current Newton state at quadrature
	// points (6·NQP·nel, order xx,yy,zz,xy,xz,yz).
	D6 []float64
	// Fac holds η′/ε̇_II per quadrature point (NQP·nel). Entries may be
	// negative (shear thinning / yielding: η′ < 0).
	Fac []float64
}

// NewNewton wraps base with the extra Newton term. d6 and fac must have
// been computed for the same state used to build base's Picard viscosity.
func NewNewton(base *TensorOp, d6, fac []float64) *NewtonOp {
	nel := base.P.DA.NElements()
	if len(d6) != 6*NQP*nel || len(fac) != NQP*nel {
		panic("fem: NewNewton array length mismatch")
	}
	return &NewtonOp{Base: base, D6: d6, Fac: fac}
}

// N returns the number of velocity dofs.
func (op *NewtonOp) N() int { return op.Base.N() }

// Apply computes y = (A_picard + A_newton)·u with symmetric Dirichlet
// elimination.
func (op *NewtonOp) Apply(u, y la.Vec) {
	p := op.Base.P
	p.applyState(true, u, y, func(e int, ue, xe, ye *[81]float64, sc *arena) {
		op.elementApply(e, ue, xe, p.Eta[NQP*e:NQP*e+NQP], ye, &sc.ks)
	})
}

// ApplyElements accumulates the action of the given element subset into y
// (which the caller must zero), exactly as TensorOp.ApplyElements does for
// the Picard operator: the rank-local piece of the distributed Newton
// matvec, with no identity rows (partial sums must stay addable).
func (op *NewtonOp) ApplyElements(elems []int, u, y la.Vec) {
	p := op.Base.P
	pass := elemPass{state: maskedState, coords: true, kern: func(e int, ue, xe, ye *[81]float64, sc *arena) {
		op.elementApply(e, ue, xe, p.Eta[NQP*e:NQP*e+NQP], ye, &sc.ks)
	}}
	p.applyElements(elems, &pass, u, y)
}

// elementApply is the tensor kernel plus the rank-one Newton term.
func (op *NewtonOp) elementApply(e int, ue, xe *[81]float64, eta []float64, ye *[81]float64, ks *kernScratch) {
	ug0, ug1, ug2 := &ks.ug0, &ks.ug1, &ks.ug2
	xg0, xg1, xg2 := &ks.xg0, &ks.xg1, &ks.xg2
	tensorGrads64(ue, ug0, ug1, ug2, &ks.kernScratchG)
	tensorGrads64(xe, xg0, xg1, xg2, &ks.kernScratchG)
	h0, h1, h2 := &ks.h0, &ks.h1, &ks.h2
	var jmat, jinv, inv, g, h [9]float64
	for q := 0; q < NQP; q++ {
		for m := 0; m < 3; m++ {
			jmat[m] = xg0[q*3+m]
			jmat[3+m] = xg1[q*3+m]
			jmat[6+m] = xg2[q*3+m]
		}
		detJ := la.Invert3(&jmat, &inv)
		jinv[0], jinv[1], jinv[2] = inv[0], inv[3], inv[6]
		jinv[3], jinv[4], jinv[5] = inv[1], inv[4], inv[7]
		jinv[6], jinv[7], jinv[8] = inv[2], inv[5], inv[8]
		for a := 0; a < 3; a++ {
			g[a*3] = ug0[q*3+a]
			g[a*3+1] = ug1[q*3+a]
			g[a*3+2] = ug2[q*3+a]
		}
		w := W3[q] * detJ
		// Physical gradient and symmetric part of the perturbation.
		var gp [9]float64
		for a := 0; a < 3; a++ {
			for m := 0; m < 3; m++ {
				gp[a*3+m] = g[a*3]*jinv[m] + g[a*3+1]*jinv[3+m] + g[a*3+2]*jinv[6+m]
			}
		}
		ddxx := gp[0]
		ddyy := gp[4]
		ddzz := gp[8]
		ddxy := 0.5 * (gp[1] + gp[3])
		ddxz := 0.5 * (gp[2] + gp[6])
		ddyz := 0.5 * (gp[5] + gp[7])
		// Picard stress 2η·D(δu), scaled by w.
		s := eta[q] * w
		var sm [9]float64
		for a := 0; a < 3; a++ {
			for m := 0; m < 3; m++ {
				sm[a*3+m] = s * (gp[a*3+m] + gp[m*3+a])
			}
		}
		// Newton term: (η′/ε̇)·(D:D(δu))·D, scaled by w.
		o := 6 * (NQP*e + q)
		d := op.D6[o : o+6]
		ddot := d[0]*ddxx + d[1]*ddyy + d[2]*ddzz + 2*(d[3]*ddxy+d[4]*ddxz+d[5]*ddyz)
		c := op.Fac[NQP*e+q] * ddot * w
		sm[0] += c * d[0]
		sm[4] += c * d[1]
		sm[8] += c * d[2]
		sm[1] += c * d[3]
		sm[3] += c * d[3]
		sm[2] += c * d[4]
		sm[6] += c * d[4]
		sm[5] += c * d[5]
		sm[7] += c * d[5]
		// Back to reference cotangents.
		for a := 0; a < 3; a++ {
			for dd := 0; dd < 3; dd++ {
				h[a*3+dd] = jinv[dd*3]*sm[a*3] + jinv[dd*3+1]*sm[a*3+1] + jinv[dd*3+2]*sm[a*3+2]
			}
		}
		for a := 0; a < 3; a++ {
			h0[q*3+a] = h[a*3]
			h1[q*3+a] = h[a*3+1]
			h2[q*3+a] = h[a*3+2]
		}
	}
	tensorScatterWrite64(h0, h1, h2, ye, &ks.kernScratchG)
}
