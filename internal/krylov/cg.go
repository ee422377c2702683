package krylov

import "ptatin3d/internal/la"

// CG solves A·x = b by the preconditioned conjugate gradient method for
// SPD A and SPD M. x holds the initial guess on entry and the solution on
// exit. It is used for the viscous block inside Schur complement reduction
// and as the inexact coarse-grid solver of the rifting configuration
// (paper §V-A: CG preconditioned with ASM). prm.Pipelined does not
// change it: only GCR and FGMRES have a latency-tolerant form.
func CG(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	var work [4]la.Vec
	return cg(a, m, b, x, prm, &work)
}

// cg is CG with the classical iteration's work vectors r, z, p, A·p held
// by the caller (allocated here when work holds none of length n). Every
// entry the iteration reads it has written first, so vectors left over
// from an earlier solve are as good as new ones.
func cg(a Op, m Preconditioner, b, x la.Vec, prm Params, work *[4]la.Vec) Result {
	n := a.N()
	if len(work[0]) != n {
		for i := range work {
			work[i] = la.NewVec(n)
		}
	}
	r, z, p, ap := work[0], work[1], work[2], work[3]

	telStart := prm.begin()
	if err := prm.consistent(x, b); err != nil {
		var res Result
		res.failEntry(prm, err)
		res.finish(prm, telStart)
		return res
	}
	a.Apply(x, r)
	prm.vaypx(r, -1, b) // r = b - A·x
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn)
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
	stag := newStagGuard(prm)
	m.Apply(r, z)
	prm.vcopy(p, z)
	rz := prm.dot(r, z)
	for it := 1; it <= prm.MaxIt; it++ {
		a.Apply(p, ap)
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
		prm.vaxpy(x, alpha, p)
		prm.vaxpy(r, -alpha, ap)
		rn = prm.norm2(r)
		res.Iterations = it
		res.record(prm, rn)
		if k := badNorm(rn); k != 0 {
			res.fail(prm, "cg", k, it, rn)
			break
		}
		if prm.hasNaN(r) {
			res.fail(prm, "cg", BreakdownNaN, it, rn)
			break
		}
		if converged(prm, rn, res.Residual0) {
			res.Converged = true
			break
		}
		if stag.stalled(rn) {
			res.fail(prm, "cg", BreakdownStagnation, it, rn)
			break
		}
		m.Apply(r, z)
		rzNew := prm.dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		prm.vaypx(p, beta, z)
	}
	res.Residual = rn
	res.finish(prm, telStart)
	return res
}
