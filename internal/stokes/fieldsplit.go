package stokes

import (
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// FieldSplit is the block lower-triangular preconditioner of paper Eq. 17:
//
//	P = [ Â    0 ]      P⁻¹r: z_u = Â⁻¹ r_u
//	    [ J_pu Ŝ ]             z_p = Ŝ⁻¹ (r_p − J_pu·z_u)
//
// with Â⁻¹ one multigrid V-cycle on the viscous block (the leading cost)
// and Ŝ = −M_p(1/η), the viscosity-scaled pressure mass matrix, which is
// spectrally equivalent to the Schur complement for this discretization
// (§III-B). With exact blocks the preconditioned operator satisfies
// (Λ−1)² = 0, so a suitable Krylov method converges in two iterations;
// inexact blocks trade iterations for much cheaper applications.
type FieldSplit struct {
	Op     *Op
	InnerU krylov.Preconditioner // Â⁻¹: V-cycle (mg.MG or a rank's mg.DistMG), amg.SA, or inner Krylov
	Mp     *fem.PressureMass

	// elems is the layout: a rank's own elements on the distributed path
	// (their pressure rows are all of z_p the rank owns), nil for every
	// element over the worker pool.
	elems []int
}

// NewFieldSplit builds the preconditioner.
func NewFieldSplit(op *Op, innerU krylov.Preconditioner, mp *fem.PressureMass) *FieldSplit {
	return &FieldSplit{Op: op, InnerU: innerU, Mp: mp}
}

// Apply computes z = P⁻¹·r: the viscous-block solve, then the Schur step
// z_p = −M_p⁻¹·(r_p − J_pu·z_u), element-local (fem.PressureMass.ApplySchur).
func (fs *FieldSplit) Apply(r, z la.Vec) {
	ru, rp := fs.Op.Split(r)
	zu, zp := fs.Op.Split(z)
	fs.InnerU.Apply(ru, zu)
	fs.Mp.ApplySchur(fs.Op.C, fs.elems, zu, rp, zp)
}

// SCR solves the coupled system by Schur complement reduction (paper
// §III-B and §IV-A): eliminate velocity exactly, iterate on
// S·δp = r_p − J_pu·J_uu⁻¹·r_u with S applied through accurate inner
// J_uu solves, then back-substitute. More expensive per iteration but
// avoids the non-normality of the block-triangular preconditioned
// operator, making it robust to extreme coefficient contrast.
type SCR struct {
	Op     *Op
	InnerU krylov.Preconditioner // preconditioner for the J_uu solves
	Mp     *fem.PressureMass
	// InnerParams controls the accuracy of the velocity solves that define
	// the action of S (rtol 1e-10 by default: "accurate inner solves").
	InnerParams krylov.Params
	// OuterParams controls the Schur iteration on the pressure.
	OuterParams krylov.Params
}

// NewSCR builds a Schur-complement-reduction solver.
func NewSCR(op *Op, innerU krylov.Preconditioner, mp *fem.PressureMass) *SCR {
	ip := krylov.DefaultParams()
	ip.RTol = 1e-10
	ip.MaxIt = 500
	opar := krylov.DefaultParams()
	opar.RTol = 1e-8
	opar.MaxIt = 200
	return &SCR{Op: op, InnerU: innerU, Mp: mp, InnerParams: ip, OuterParams: opar}
}

// Solve computes [u;p] ← J⁻¹[bu;bp] (correction form: the caller passes
// residuals and receives corrections; x must be zero on entry or hold an
// initial guess for the velocity only). Returns the outer (Schur) result.
func (s *SCR) Solve(b, x la.Vec) krylov.Result {
	bu, bp := s.Op.Split(b)
	xu, xp := s.Op.Split(x)
	nu := s.Op.Nu

	// w = J_uu⁻¹ b_u.
	w := la.NewVec(nu)
	krylov.FGMRES(uOnly{s.Op}, s.InnerU, bu, w, s.InnerParams)

	// Schur RHS: g = b_p − J_pu w.
	g := la.NewVec(s.Op.Np)
	s.Op.C.ApplyD(w, g)
	for i := range g {
		g[i] = bp[i] - g[i]
	}

	// Outer iteration on S δp = g with S = −J_pu J_uu⁻¹ J_up, applied via
	// accurate velocity solves; preconditioned by Ŝ⁻¹ = −M_p⁻¹.
	sOp := krylov.OpFunc{Dim: s.Op.Np, F: func(xq, yq la.Vec) {
		t := la.NewVec(nu)
		s.Op.C.ApplyGAdd(xq, t) // t = J_up x
		v := la.NewVec(nu)
		krylov.FGMRES(uOnly{s.Op}, s.InnerU, t, v, s.InnerParams)
		s.Op.C.ApplyD(v, yq)
		yq.Scale(-1)
	}}
	sPC := krylov.PCFunc(func(r, z la.Vec) {
		s.Mp.ApplyInv(r, z)
		z.Scale(-1)
	})
	res := krylov.FGMRES(sOp, sPC, g, xp, s.OuterParams)

	// Back-substitute: u = J_uu⁻¹ (b_u − J_up p).
	t := la.NewVec(nu)
	s.Op.C.ApplyGAdd(xp, t)
	for i := range t {
		t[i] = bu[i] - t[i]
	}
	xu.Zero()
	krylov.FGMRES(uOnly{s.Op}, s.InnerU, t, xu, s.InnerParams)
	return res
}

// uOnly exposes just the viscous block of a coupled operator.
type uOnly struct{ op *Op }

func (u uOnly) N() int            { return u.op.Nu }
func (u uOnly) Apply(x, y la.Vec) { u.op.Auu.Apply(x, y) }
