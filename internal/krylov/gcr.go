package krylov

import (
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
// Callback, when non-nil, receives the iteration number and the current
// residual vector after every step (used to log per-field residual norms).
//
// With prm.Pipelined set on a rank-collective solve (Reducer != nil)
// the single-reduce classical-Gram–Schmidt variant runs instead (see
// pipeline.go); without a Reducer the flag is ignored and the serial
// path below runs bit-for-bit.
func GCR(a Op, m Preconditioner, b, x la.Vec, prm Params, callback func(it int, r la.Vec)) Result {
	if prm.Pipelined && prm.Reducer != nil {
		return pipeGCR(a, m, b, x, prm, callback)
	}
	n := a.N()
	mr := prm.restart()
	telStart := prm.begin()
	r := la.NewVec(n)
	if err := prm.consistent(x, b); err != nil {
		var res Result
		res.failEntry(prm, err)
		res.finish(prm, telStart)
		return res
	}
	a.Apply(x, r)
	prm.vaypx(r, -1, b)
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn)
	if callback != nil {
		callback(0, r)
	}
	if k := badNorm(rn); k != 0 {
		res.fail(prm, "gcr", k, 0, rn)
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
	stag := newStagGuard(prm)

	zs := make([]la.Vec, 0, mr) // search directions (preconditioned)
	qs := make([]la.Vec, 0, mr) // A·z, orthonormalized
	z := la.NewVec(n)
	q := la.NewVec(n)

	for it := 1; it <= prm.MaxIt; it++ {
		m.Apply(r, z)
		a.Apply(z, q)
		// Orthogonalize q against previous directions (modified GS).
		for i := range qs {
			beta := prm.dot(q, qs[i])
			prm.vaxpy(q, -beta, qs[i])
			prm.vaxpy(z, -beta, zs[i])
		}
		qn := prm.norm2(q)
		if qn == 0 {
			res.fail(prm, "gcr", BreakdownZeroPivot, it, qn)
			break
		}
		prm.vscale(q, 1/qn)
		prm.vscale(z, 1/qn)
		alpha := prm.dot(r, q)
		prm.vaxpy(x, alpha, z)
		prm.vaxpy(r, -alpha, q)
		rn = prm.norm2(r)
		res.Iterations = it
		res.record(prm, rn)
		if callback != nil {
			callback(it, r)
		}
		if k := badNorm(rn); k != 0 {
			res.fail(prm, "gcr", k, it, rn)
			break
		}
		if prm.hasNaN(r) {
			res.fail(prm, "gcr", BreakdownNaN, it, rn)
			break
		}
		if converged(prm, rn, res.Residual0) {
			res.Converged = true
			break
		}
		if stag.stalled(rn) {
			res.fail(prm, "gcr", BreakdownStagnation, it, rn)
			break
		}
		// Store the direction; restart (truncate) when full.
		if len(qs) == mr {
			zs = zs[:0]
			qs = qs[:0]
		}
		zs = append(zs, prm.vclone(z))
		qs = append(qs, prm.vclone(q))
		res.BasisVectors = max(res.BasisVectors, 2*len(qs))
	}
	res.Residual = rn
	res.finish(prm, telStart)
	return res
}
