package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// GCR solves A·x = b by the generalized conjugate residual method with
// truncation/restart length prm.Restart. GCR is flexible (the
// preconditioner may be nonlinear) and — unlike GMRES, whose residual
// exists only through a recurrence — keeps the true residual and iterate
// explicitly available at every step. The paper (§III-A) prefers it for
// exactly that reason: the momentum/pressure residual split of Figure 2
// is read directly off the GCR residual.
//
// prm.Monitor, when non-nil, receives the iteration number and the
// current residual vector after every step (the Stokes solver logs its
// per-field norms from it).
//
// Modified Gram–Schmidt fuses each update of q with the next reduction,
// as gmres.go does: β₀ = (q, q₀), then q −= βᵢ·qᵢ and β_{i+1} = (q, q_{i+1})
// in one sweep (Params.axpyDot), the last returning ‖q‖²; z keeps its own
// update. The step r −= α·q likewise returns ‖r‖² from the same sweep.
// Each fused sweep is bitwise the update followed by the dot, on a rank
// too (Reducer.AXPYDot; see axpyDot).
func GCR(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	n := a.N()
	mr := prm.restart()
	telStart := prm.begin()
	const method = "gcr"
	ws := prm.workspace(n)
	r := ws.vec()
	ws.apply(a.Apply, x, r)
	r.AYPX(-1, b)
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn, r)
	if k := badNorm(rn); k != 0 {
		res.fail(prm, method, k, 0, rn)
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

	// zs[i], qs[i] for i < nd are the stored search directions
	// (preconditioned) and their orthonormalised images A·z; slot nd is the
	// direction under construction — the preconditioner and the operator
	// write straight into it, so storing it is nd++ and copies nothing. The
	// mr+1 slots are taken from the workspace as the iteration first
	// reaches them.
	zs, qs := ws.basis(mr)
	nd := 0

	for it := 1; it <= prm.MaxIt; it++ {
		if zs[nd] == nil {
			zs[nd], qs[nd] = ws.vec(), ws.vec()
		}
		z, q := zs[nd], qs[nd]
		ws.applyFull(a.Apply, ws.apply(m.Apply, r, z), q)
		// Modified Gram–Schmidt, one reduction per stored direction, each
		// fused to the update before it; q is qs[nd], so the last sweep
		// returns (q, q).
		beta := prm.dot(q, qs[0])
		for i := 0; i < nd; i++ {
			z.AXPY(-beta, zs[i])
			beta = prm.axpyDot(q, -beta, qs[i], qs[i+1])
		}
		qn := math.Sqrt(beta)
		if qn == 0 {
			res.fail(prm, method, BreakdownZeroPivot, it, qn)
			break
		}
		q.Scale(1 / qn)
		z.Scale(1 / qn)
		alpha := prm.dot(r, q)
		x.AXPY(alpha, z)
		rn = math.Sqrt(prm.axpyDot(r, -alpha, q, r))
		res.Iterations = it
		res.record(prm, rn, r)
		// A NaN or Inf entry of r makes rn non-finite: r needs no scan.
		if k := badNorm(rn); k != 0 {
			res.fail(prm, method, k, it, rn)
			break
		}
		if converged(prm, rn, res.Residual0) {
			res.Converged = true
			break
		}
		// Store the direction; restart (truncate) when full: the new
		// direction opens the next cycle.
		if nd == mr {
			zs[0], zs[mr] = zs[mr], zs[0]
			qs[0], qs[mr] = qs[mr], qs[0]
			nd = 0
		}
		nd++
		res.BasisVectors = max(res.BasisVectors, 2*nd)
	}
	res.Residual = rn
	res.finish(prm, telStart)
	return res
}
