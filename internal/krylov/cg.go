package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// CG solves A·x = b by the preconditioned conjugate gradient method for
// SPD A and SPD M. x holds the initial guess on entry and the solution on
// exit. It is used for the viscous block inside Schur complement reduction
// and as the inexact coarse-grid solver of the rifting configuration
// (paper §V-A: CG preconditioned with ASM).
//
// The residual update r −= α·A·p returns ‖r‖² from the same sweep
// (Params.axpyDot), bitwise the update followed by the norm, on a rank
// too (Reducer.AXPYDot). r, z, p and A·p come from Params.Work, as GCR's and
// FGMRES's vectors do: every entry the iteration reads it has written
// first, so vectors left over from an earlier solve are as good as new
// ones.
func CG(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	n := a.N()
	telStart := prm.begin()
	ws := prm.workspace(n)
	r, z, p, ap := ws.vec(), ws.vec(), ws.vec(), ws.vec()
	ws.apply(a.Apply, x, r)
	r.AYPX(-1, b) // r = b - A·x
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn, r)
	if k := badNorm(rn); k != 0 {
		res.fail(prm, "cg", k, 0, rn)
		res.Residual = rn
		res.finish(prm, telStart)
		return res
	}
	if converged(prm, rn, res.Residual0) {
		res.Converged = true
		res.Residual = rn
		res.finish(prm, telStart)
		return res
	}
	ws.apply(m.Apply, r, z)
	p.Copy(z)
	rz := prm.dot(r, z)
	for it := 1; it <= prm.MaxIt; it++ {
		ws.apply(a.Apply, p, ap)
		den := prm.dot(p, ap)
		if den == 0 || rz == 0 {
			res.fail(prm, "cg", BreakdownZeroPivot, it, den)
			break
		}
		if k := badNorm(den); k != 0 {
			res.fail(prm, "cg", k, it, den)
			break
		}
		alpha := rz / den
		x.AXPY(alpha, p)
		rn = math.Sqrt(prm.axpyDot(r, -alpha, ap, r))
		res.Iterations = it
		res.record(prm, rn, r)
		// A NaN or Inf entry of r makes rn non-finite: r needs no scan.
		if k := badNorm(rn); k != 0 {
			res.fail(prm, "cg", k, it, rn)
			break
		}
		if converged(prm, rn, res.Residual0) {
			res.Converged = true
			break
		}
		ws.apply(m.Apply, r, z)
		rzNew := prm.dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		p.AYPX(beta, z)
	}
	res.Residual = rn
	res.finish(prm, telStart)
	return res
}
