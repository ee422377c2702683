// Package stokes assembles the coupled heterogeneous Stokes solver of the
// paper: the saddle-point operator J = [[J_uu, J_up],[J_pu, 0]] (Eq. 14),
// the block lower-triangular field-split preconditioner with a
// viscosity-scaled pressure-mass Schur approximation (Eq. 17, §III-B), the
// Schur-complement-reduction alternative, and a configuration-driven
// builder covering every preconditioner variant benchmarked in §IV.
package stokes

import (
	"math"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// Op is the coupled Stokes operator acting on stacked vectors x = [u; p]
// with len = NVelDOF + NPresDOF. Dirichlet velocity rows act as identity;
// pressure is unconstrained. Apply runs the viscous block Auu, any
// Table-I representation or a Newton linearisation; Residual always runs
// the problem's tensor kernel, whatever Auu is, so an Op asked only for
// Residual may leave Auu nil.
type Op struct {
	P   *fem.Problem
	Auu krylov.Op     // the viscous block of Apply; nil on an Op for Residual alone
	C   *fem.Coupling // gradient/divergence blocks
	Nu  int
	Np  int

	res *fem.TensorOp // the viscous kernel of Residual
}

// NewOp wires a coupled operator around a viscous-block implementation.
func NewOp(p *fem.Problem, auu krylov.Op, c *fem.Coupling) *Op {
	return &Op{P: p, Auu: auu, C: c, Nu: p.DA.NVelDOF(), Np: p.DA.NPresDOF(), res: fem.NewTensor(p)}
}

// N returns the coupled dimension.
func (op *Op) N() int { return op.Nu + op.Np }

// Split views x as its velocity and pressure parts.
func (op *Op) Split(x la.Vec) (u, p la.Vec) { return x[:op.Nu], x[op.Nu:] }

// Apply computes y = J·x in symmetric-elimination form (constrained
// velocity rows/columns replaced by identity).
func (op *Op) Apply(x, y la.Vec) {
	xu, xp := op.Split(x)
	yu, yp := op.Split(y)
	op.Auu.Apply(xu, yu)         // viscous block (+ identity rows)
	op.C.ApplyGD(xu, xp, yu, yp) // gradient on free rows, divergence of the free velocity
}

// Residual computes F(x) for the state x (whose constrained velocity
// entries hold prescribed boundary values) against the body-force load bu:
// F_u = J_uu·u + G·p − bu on free rows (0 on constrained rows),
// F_p = J_pu·u. The viscous part is evaluated matrix-free by the tensor
// kernel (fem.TensorOp.ApplyFreeRows) whatever Auu is, as pTatin3D
// always evaluates its residuals: an assembled matrix drops the
// constrained columns a boundary-valued state needs.
func (op *Op) Residual(x, bu, f la.Vec) {
	xu, xp := op.Split(x)
	fu, fp := op.Split(f)
	op.res.ApplyFreeRows(xu, fu)
	op.C.ApplyGDRaw(xu, xp, fu, fp)
	for d := range fu {
		if op.P.BC.Mask[d] {
			fu[d] = 0
		} else {
			fu[d] -= bu[d]
		}
	}
}

// FieldNorms returns the Euclidean norms of the velocity part, the
// component of the velocity part along the given vertical axis, and the
// pressure part of a coupled vector — the quantities plotted in Figure 2
// of the paper (vertical momentum residual vs. pressure residual).
func (op *Op) FieldNorms(x la.Vec, axis int) (uNorm, vertNorm, pNorm float64) {
	xu, xp := op.Split(x)
	uNorm = xu.Norm2()
	var s float64
	for i := axis; i < len(xu); i += 3 {
		s += xu[i] * xu[i]
	}
	vertNorm = math.Sqrt(s)
	pNorm = xp.Norm2()
	return
}
