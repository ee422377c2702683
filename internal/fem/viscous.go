package fem

import "ptatin3d/internal/la"

// qpCommon applies the per-quadrature-point stress update shared by the
// MF and Tensor kernels: given the reference gradient g[a][d]=∂u_a/∂ξ_d,
// the inverse Jacobian jinv[d][m]=∂ξ_d/∂x_m and the scaled coefficient
// s = η·w·detJ, it returns h[a][d] = Σ_m jinv[d][m]·S[a][m] with
// S = s·(∇u + ∇uᵀ) the weighted deviatoric stress 2η·D(u)·w·detJ.
// The loops are fully unrolled (identical arithmetic order, so results
// are bit-for-bit unchanged): this runs 27 times per element on the
// hottest apply path, and the unrolled form keeps everything in
// registers with no bounds checks.
func qpCommon(g *[9]float64, jinv *[9]float64, s float64, h *[9]float64) {
	j00, j01, j02 := jinv[0], jinv[1], jinv[2]
	j10, j11, j12 := jinv[3], jinv[4], jinv[5]
	j20, j21, j22 := jinv[6], jinv[7], jinv[8]
	// Physical gradient Gp[a][m] = Σ_d g[a*3+d]·jinv[d*3+m].
	gp00 := g[0]*j00 + g[1]*j10 + g[2]*j20
	gp01 := g[0]*j01 + g[1]*j11 + g[2]*j21
	gp02 := g[0]*j02 + g[1]*j12 + g[2]*j22
	gp10 := g[3]*j00 + g[4]*j10 + g[5]*j20
	gp11 := g[3]*j01 + g[4]*j11 + g[5]*j21
	gp12 := g[3]*j02 + g[4]*j12 + g[5]*j22
	gp20 := g[6]*j00 + g[7]*j10 + g[8]*j20
	gp21 := g[6]*j01 + g[7]*j11 + g[8]*j21
	gp22 := g[6]*j02 + g[7]*j12 + g[8]*j22
	// S[a][m] = s·(Gp[a][m]+Gp[m][a]), the weighted deviatoric stress.
	sm00 := s * (gp00 + gp00)
	sm01 := s * (gp01 + gp10)
	sm02 := s * (gp02 + gp20)
	sm10 := s * (gp10 + gp01)
	sm11 := s * (gp11 + gp11)
	sm12 := s * (gp12 + gp21)
	sm20 := s * (gp20 + gp02)
	sm21 := s * (gp21 + gp12)
	sm22 := s * (gp22 + gp22)
	// h[a][d] = Σ_m jinv[d*3+m]·S[a][m].
	h[0] = j00*sm00 + j01*sm01 + j02*sm02
	h[1] = j10*sm00 + j11*sm01 + j12*sm02
	h[2] = j20*sm00 + j21*sm01 + j22*sm02
	h[3] = j00*sm10 + j01*sm11 + j02*sm12
	h[4] = j10*sm10 + j11*sm11 + j12*sm12
	h[5] = j20*sm10 + j21*sm11 + j22*sm12
	h[6] = j00*sm20 + j01*sm21 + j02*sm22
	h[7] = j10*sm20 + j11*sm21 + j12*sm22
	h[8] = j20*sm20 + j21*sm21 + j22*sm22
}

// ---------------------------------------------------------------------------
// MFOp: reference (non-tensor) matrix-free operator.
// ---------------------------------------------------------------------------

// MFOp applies the viscous block element-by-element using the explicit
// 81×27 reference derivative tabulation G27 at every quadrature point —
// the paper's reference matrix-free implementation ("MF" in Tables I–III).
// No matrix is stored; only coordinates, state and the coefficient stream
// through memory.
type MFOp struct {
	P *Problem
}

// NewMF returns a reference matrix-free operator for p.
func NewMF(p *Problem) *MFOp { return &MFOp{P: p} }

// N returns the number of velocity dofs.
func (op *MFOp) N() int { return op.P.DA.NVelDOF() }

// Apply computes y = J_uu·u with symmetric Dirichlet elimination.
func (op *MFOp) Apply(u, y la.Vec) {
	p := op.P
	p.applyState(true, u, y, func(e int, ue, xe, ye *[81]float64, _ *arena) {
		mfElementApply(ue, xe, p.Eta[NQP*e:NQP*e+NQP], ye)
	})
}

// applyState runs a kernel of the state and the coordinates: the operator
// (masked state, identity rows) or the free rows of a residual (raw
// state, zero rows).
func (p *Problem) applyState(masked bool, u, y la.Vec, kern func(e int, ue, xe, ye *[81]float64, sc *arena)) {
	pass, r := elemPass{kern: kern, state: rawState, coords: true}, zeroRows
	if masked {
		pass.state, r = maskedState, identityRows
	}
	p.apply(pass, r, u, y)
}

// mfElementApply is the non-tensor matrix-free element kernel. It fully
// defines ye (slab scratch is reused across elements un-zeroed).
func mfElementApply(ue, xe *[81]float64, eta []float64, ye *[81]float64) {
	*ye = [81]float64{}
	var jinv [9]float64
	for q := 0; q < NQP; q++ {
		detJ := jacobianAt(xe, q, &jinv)
		// Physical basis gradients gn[n][m] and velocity gradient.
		var gn [27][3]float64
		gq := &G27[q]
		for n := 0; n < 27; n++ {
			g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
			gn[n][0] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
			gn[n][1] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
			gn[n][2] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
		}
		var gp [9]float64 // Gp[a][m]
		for n := 0; n < 27; n++ {
			u0, u1, u2 := ue[3*n], ue[3*n+1], ue[3*n+2]
			for m := 0; m < 3; m++ {
				gnm := gn[n][m]
				gp[m] += u0 * gnm
				gp[3+m] += u1 * gnm
				gp[6+m] += u2 * gnm
			}
		}
		s := eta[q] * W3[q] * detJ
		var sm [9]float64
		for a := 0; a < 3; a++ {
			for m := 0; m < 3; m++ {
				sm[a*3+m] = s * (gp[a*3+m] + gp[m*3+a])
			}
		}
		for n := 0; n < 27; n++ {
			g0, g1, g2 := gn[n][0], gn[n][1], gn[n][2]
			ye[3*n] += g0*sm[0] + g1*sm[1] + g2*sm[2]
			ye[3*n+1] += g0*sm[3] + g1*sm[4] + g2*sm[5]
			ye[3*n+2] += g0*sm[6] + g1*sm[7] + g2*sm[8]
		}
	}
}

// ---------------------------------------------------------------------------
// TensorOp: tensor-product matrix-free operator.
// ---------------------------------------------------------------------------

// TensorOp applies the viscous block using 1-D tensor contractions for all
// basis/derivative evaluations ("Tens" in the paper). Metric terms are
// recomputed from nodal coordinates on the fly; nothing per-element is
// stored, so the working set per element is ~1 kB and elements stream
// through cache.
type TensorOp struct {
	P *Problem
}

// NewTensor returns a tensor-product matrix-free operator for p.
func NewTensor(p *Problem) *TensorOp { return &TensorOp{P: p} }

// N returns the number of velocity dofs.
func (op *TensorOp) N() int { return op.P.DA.NVelDOF() }

// Apply computes y = J_uu·u with symmetric Dirichlet elimination.
func (op *TensorOp) Apply(u, y la.Vec) { op.apply(u, y, true) }

// ApplyFreeRows computes the free rows of J_uu·u for an unmasked state u
// (constrained entries hold boundary values), zeroing constrained rows:
// the one viscous kernel of the nonlinear residual (stokes.Op.Residual),
// which pTatin3D always evaluates matrix-free.
func (op *TensorOp) ApplyFreeRows(u, y la.Vec) { op.apply(u, y, false) }

func (op *TensorOp) apply(u, y la.Vec, masked bool) {
	p := op.P
	p.applyState(masked, u, y, func(e int, ue, xe, ye *[81]float64, sc *arena) {
		tensorElementApply(ue, xe, p.Eta[NQP*e:NQP*e+NQP], ye, &sc.ks)
	})
}

// tensorElementApply is the tensor-product element kernel (Eq. 19 of the
// paper): gradients of state and coordinates by 1-D contractions, the
// metric terms folded into the quadrature loop, and the adjoint
// contractions scattering the result.
func tensorElementApply(ue, xe *[81]float64, eta []float64, ye *[81]float64, ks *kernScratch) {
	ug0, ug1, ug2 := &ks.ug0, &ks.ug1, &ks.ug2
	xg0, xg1, xg2 := &ks.xg0, &ks.xg1, &ks.xg2
	tensorGrads64(ue, ug0, ug1, ug2, &ks.kernScratchG)
	tensorGrads64(xe, xg0, xg1, xg2, &ks.kernScratchG)
	h0, h1, h2 := &ks.h0, &ks.h1, &ks.h2
	var jmat, jinv, inv, g, h [9]float64
	for q := 0; q < NQP; q++ {
		// jmat[d][m] = ∂x_m/∂ξ_d from the coordinate gradients.
		for m := 0; m < 3; m++ {
			jmat[m] = xg0[q*3+m]
			jmat[3+m] = xg1[q*3+m]
			jmat[6+m] = xg2[q*3+m]
		}
		detJ := la.Invert3(&jmat, &inv)
		// jinv[d][m] = ∂ξ_d/∂x_m = inv[m][d].
		jinv[0], jinv[1], jinv[2] = inv[0], inv[3], inv[6]
		jinv[3], jinv[4], jinv[5] = inv[1], inv[4], inv[7]
		jinv[6], jinv[7], jinv[8] = inv[2], inv[5], inv[8]
		// g[a][d] = ∂u_a/∂ξ_d.
		for a := 0; a < 3; a++ {
			g[a*3] = ug0[q*3+a]
			g[a*3+1] = ug1[q*3+a]
			g[a*3+2] = ug2[q*3+a]
		}
		qpCommon(&g, &jinv, eta[q]*W3[q]*detJ, &h)
		for a := 0; a < 3; a++ {
			h0[q*3+a] = h[a*3]
			h1[q*3+a] = h[a*3+1]
			h2[q*3+a] = h[a*3+2]
		}
	}
	tensorScatterWrite64(h0, h1, h2, ye, &ks.kernScratchG)
}

// ApplyElements accumulates the viscous-block action of the given element
// subset into y (which the caller must zero): the building block of
// rank-distributed operator application, where each simulated rank owns a
// contiguous element block and halo sums are exchanged explicitly
// (internal/comm). No Dirichlet identity rows are added — partial sums
// from different ranks must remain addable; the distributed driver
// applies the identity after the halo reduction.
func (op *TensorOp) ApplyElements(elems []int, u, y la.Vec) {
	p := op.P
	pass := elemPass{state: maskedState, coords: true, kern: func(e int, ue, xe, ye *[81]float64, sc *arena) {
		tensorElementApply(ue, xe, p.Eta[NQP*e:NQP*e+NQP], ye, &sc.ks)
	}}
	p.applyElements(elems, &pass, u, y)
}
