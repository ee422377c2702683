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
// Callback, when non-nil, receives the iteration number and the current
// residual vector after every step (used to log per-field residual norms).
//
// With prm.Pipelined set on a rank-collective solve (Reducer != nil)
// the orthogonalisation switches from modified Gram–Schmidt (j+3
// reductions at basis length j) to reorthogonalised classical
// Gram–Schmidt, CGS2: two batched reductions per iteration whatever j,
// the second also carrying (q,q), (r,q) and (r,r), from which the step
// length and the new residual norm follow without a further reduction.
// One pass is not enough, exactly as in gmres.go: its orthogonality loss
// grows like ε·(‖r₀‖/‖r_j‖)² times the rounding of the reducer's sums,
// and since that rounding depends on how the sum is cut into ranks, a
// single-pass solve took 62 iterations on one rank where eight ranks and
// classical GCR took 37 (16³ sinker, Δη = 100). Without a Reducer the
// flag is ignored and the classical branch runs bit-for-bit.
func GCR(a Op, m Preconditioner, b, x la.Vec, prm Params, callback func(it int, r la.Vec)) Result {
	n := a.N()
	mr := prm.restart()
	telStart := prm.begin()
	pipe := prm.Pipelined && prm.Reducer != nil
	method := "gcr"
	if pipe {
		method = "pipegcr"
	}
	if err := prm.consistent(x, b); err != nil {
		var res Result
		res.failEntry(prm, err)
		res.finish(prm, telStart)
		return res
	}
	ws := prm.workspace(n)
	r := ws.vec()
	a.Apply(x, r)
	prm.vaypx(r, -1, b)
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn)
	if callback != nil {
		callback(0, r)
	}
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
	stag := newStagGuard(prm)

	// zs[i], qs[i] for i < nd are the stored search directions
	// (preconditioned) and their orthonormalised images A·z; slot nd is the
	// direction under construction — the preconditioner and the operator
	// write straight into it, so storing it is nd++ and copies nothing. The
	// mr+1 slots are taken from the workspace as the iteration first
	// reaches them.
	zs := make([]la.Vec, mr+1)
	qs := make([]la.Vec, mr+1)
	nd := 0

	for it := 1; it <= prm.MaxIt; it++ {
		if zs[nd] == nil {
			zs[nd], qs[nd] = ws.vec(), ws.vec()
		}
		z, q := zs[nd], qs[nd]
		m.Apply(r, z)
		a.Apply(z, q)
		var qn, rq, rr float64 // rq, rr: (r,q) and (r,r) off the pipelined batch
		if pipe {
			qn, rq, rr = prm.cgs2(q, z, r, qs[:nd], zs[:nd])
		} else {
			// Modified Gram–Schmidt, one reduction per stored direction.
			for i := 0; i < nd; i++ {
				beta := prm.dot(q, qs[i])
				prm.vaxpy(q, -beta, qs[i])
				prm.vaxpy(z, -beta, zs[i])
			}
			qn = prm.norm2(q)
		}
		if qn == 0 {
			res.fail(prm, method, BreakdownZeroPivot, it, qn)
			break
		}
		prm.vscale(q, 1/qn)
		prm.vscale(z, 1/qn)
		var alpha float64
		if pipe {
			// r ⊥ qs[i], so the batch's (r,q) is already the projection of
			// r on the orthogonalised q: no reduction.
			alpha = rq / qn
		} else {
			alpha = prm.dot(r, q)
		}
		prm.vaxpy(x, alpha, z)
		prm.vaxpy(r, -alpha, q)
		if pipe {
			// ‖r_new‖² = ‖r‖² − α² (r_new ⊥ q) off this iteration's true
			// (r,r): the recurrence never compounds, only this subtraction
			// cancels.
			rn = math.Sqrt(math.Max(rr-alpha*alpha, 0))
		} else {
			rn = prm.norm2(r)
		}
		res.Iterations = it
		res.record(prm, rn)
		if callback != nil {
			callback(it, r)
		}
		if k := badNorm(rn); k != 0 {
			res.fail(prm, method, k, it, rn)
			break
		}
		if prm.hasNaN(r) {
			res.fail(prm, method, BreakdownNaN, it, rn)
			break
		}
		if converged(prm, rn, res.Residual0) {
			res.Converged = true
			break
		}
		if stag.stalled(rn) {
			res.fail(prm, method, BreakdownStagnation, it, rn)
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

// cgs2 orthogonalises q (and z with it) against the stored orthonormal
// directions by classical Gram–Schmidt applied twice, each pass ONE
// batched reduction; the second batch also carries (q,q), (r,q), (r,r).
// The second pass's coefficients are the O(ε) residue of the first, so
// the norm recurrence ‖q'‖² = (q,q) − Σβᵢ² is evaluated where
// cancellation is harmless. Returns ‖q'‖ (0 when it is not a positive
// finite number) with the two residual products. With no stored direction
// the first pass is empty and is skipped.
func (p Params) cgs2(q, z, r la.Vec, qs, zs []la.Vec) (qn, rq, rr float64) {
	j := len(qs)
	var qq float64
	for pass := 0; pass < 2; pass++ {
		last := pass == 1
		if !last && j == 0 {
			continue
		}
		xs, ys := make([]la.Vec, 0, j+3), make([]la.Vec, 0, j+3)
		for i := range qs {
			xs, ys = append(xs, q), append(ys, qs[i])
		}
		if last {
			xs, ys = append(xs, q, r, r), append(ys, q, q, r)
		}
		d := p.dots(xs, ys)
		if last {
			qq, rq, rr = d[j], d[j+1], d[j+2]
		}
		for i := range qs {
			p.vaxpy(q, -d[i], qs[i])
			p.vaxpy(z, -d[i], zs[i])
			qq -= d[i] * d[i]
		}
	}
	if qq > 0 && badNorm(qq) == 0 {
		qn = math.Sqrt(qq)
	}
	return qn, rq, rr
}
