package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// Single-reduce ("pipelined") Krylov variants, selected by
// Params.Pipelined on rank-collective solves. At 64–512 simulated ranks
// the dominant per-iteration cost is no longer flops but allreduce
// latency — O(log P) message hops per reduction — so the classical
// iterations (CG: 3 reductions, GCR: j+3, FGMRES: j+2) are restructured
// to fold every inner product of an iteration into ONE batched
// reduction through the BatchReducer hook:
//
//   - CG uses the Chronopoulos–Gear recurrences: the three scalars
//     γ=(r,u), δ=(w,u), ρ=(r,r) reduce together, and the search/update
//     vectors are advanced by recurrences instead of recomputation.
//   - GCR replaces modified Gram–Schmidt with classical Gram–Schmidt and
//     exploits r ⊥ q_i for the stored orthonormal directions, batching
//     [(q,q_0)…(q,q_{j-1}), (q,q), (r,q), (r,r)]; the post-update
//     residual norm follows from ‖r_new‖² = ‖r‖² − α², refreshed from a
//     true (r,r) every iteration so the recurrence cannot drift.
//   - FGMRES swaps MGS for reorthogonalized classical Gram–Schmidt
//     (CGS2) with the norm recurrence h_{j+1,j}² = (w,w) − Σᵢ h_{ij}²:
//     two batched reductions per iteration regardless of the Krylov
//     dimension j (see gmres.go for why one CGS pass is not enough).
//
// The recurrences change the floating-point summation order, so results
// differ from the classical variants in the last bits (the property
// tests bound the drift at ≤1e-10 and ±2 iterations); across rank
// counts the pipelined trajectory itself is bit-identical as long as
// the reducer is deterministic. With Reducer == nil the Pipelined flag
// is ignored entirely and the serial classical path runs bit-for-bit.

// pipeCG is preconditioned CG with the Chronopoulos–Gear single-reduce
// iteration.
func pipeCG(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	n := a.N()
	r := la.NewVec(n)
	u := la.NewVec(n) // M⁻¹·r
	w := la.NewVec(n) // A·u
	mv := la.NewVec(n)
	nv := la.NewVec(n)
	p := la.NewVec(n)
	s := la.NewVec(n) // A·p
	q := la.NewVec(n) // M⁻¹·s
	z := la.NewVec(n) // A·q

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
		res.fail(prm, "pipecg", k, 0, rn)
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
	m.Apply(r, u)
	a.Apply(u, w)

	var gammaOld, alphaOld float64
	for it := 1; ; it++ {
		// The iteration's one reduction: γ=(r,u), δ=(w,u), ρ=(r,r).
		d := prm.dots([]la.Vec{r, w, r}, []la.Vec{u, u, r})
		gamma, delta, rho := d[0], d[1], d[2]
		rn = math.Sqrt(rho)
		if it > 1 {
			// ρ is ‖r‖² after the previous update step: the pipelined
			// iteration observes convergence one reduction later than
			// classical CG, which is the latency it trades away.
			res.Iterations = it - 1
			res.record(prm, rn)
			if k := badNorm(rn); k != 0 {
				res.fail(prm, "pipecg", k, it-1, rn)
				break
			}
			if converged(prm, rn, res.Residual0) {
				res.Converged = true
				break
			}
			if stag.stalled(rn) {
				res.fail(prm, "pipecg", BreakdownStagnation, it-1, rn)
				break
			}
		}
		if it > prm.MaxIt {
			break
		}
		m.Apply(w, mv)
		a.Apply(mv, nv)
		var alpha, beta float64
		if it == 1 {
			if delta == 0 || badNorm(delta) != 0 {
				res.fail(prm, "pipecg", BreakdownZeroPivot, it, delta)
				break
			}
			beta, alpha = 0, gamma/delta
		} else {
			beta = gamma / gammaOld
			den := delta - beta*gamma/alphaOld
			if den == 0 || gammaOld == 0 || badNorm(den) != 0 {
				res.fail(prm, "pipecg", BreakdownZeroPivot, it, den)
				break
			}
			alpha = gamma / den
		}
		prm.vaypx(z, beta, nv) // z = n + β·z
		prm.vaypx(q, beta, mv) // q = m + β·q
		prm.vaypx(s, beta, w)  // s = w + β·s
		prm.vaypx(p, beta, u)  // p = u + β·p
		prm.vaxpy(x, alpha, p)
		prm.vaxpy(r, -alpha, s)
		prm.vaxpy(u, -alpha, q)
		prm.vaxpy(w, -alpha, z)
		gammaOld, alphaOld = gamma, alpha
	}
	res.Residual = rn
	res.finish(prm, telStart)
	return res
}

// pipeGCR is flexible GCR with the single-reduce iteration: classical
// Gram–Schmidt against the stored orthonormal directions plus the
// residual projections, all in one batched reduction.
func pipeGCR(a Op, m Preconditioner, b, x la.Vec, prm Params, callback func(it int, r la.Vec)) Result {
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
		res.fail(prm, "pipegcr", k, 0, rn)
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

	zs := make([]la.Vec, 0, mr)
	qs := make([]la.Vec, 0, mr)
	z := la.NewVec(n)
	q := la.NewVec(n)
	xs := make([]la.Vec, 0, mr+3)
	ys := make([]la.Vec, 0, mr+3)

	for it := 1; it <= prm.MaxIt; it++ {
		m.Apply(r, z)
		a.Apply(z, q)
		// One reduction: CGS coefficients against the stored directions,
		// the raw norm (q,q), the projection (r,q) and the true (r,r).
		xs, ys = xs[:0], ys[:0]
		for i := range qs {
			xs, ys = append(xs, q), append(ys, qs[i])
		}
		xs, ys = append(xs, q, r, r), append(ys, q, q, r)
		d := prm.dots(xs, ys)
		j := len(qs)
		qq, rq, rr := d[j], d[j+1], d[j+2]
		qn2 := qq
		for i := 0; i < j; i++ {
			beta := d[i]
			prm.vaxpy(q, -beta, qs[i])
			prm.vaxpy(z, -beta, zs[i])
			// The stored qs are orthonormal, so CGS shrinks ‖q‖² by
			// exactly the removed projections: ‖q'‖² = (q,q) − Σβᵢ².
			qn2 -= beta * beta
		}
		if qn2 <= 0 || badNorm(qn2) != 0 {
			res.fail(prm, "pipegcr", BreakdownZeroPivot, it, qn2)
			break
		}
		qn := math.Sqrt(qn2)
		prm.vscale(q, 1/qn)
		prm.vscale(z, 1/qn)
		// r ⊥ qs[i] for the stored directions, so the projection of r on
		// the normalized q needs no new reduction: α = (r,q)/‖q'‖.
		alpha := rq / qn
		prm.vaxpy(x, alpha, z)
		prm.vaxpy(r, -alpha, q)
		// ‖r_new‖² = ‖r‖² − α² (r_new ⊥ q). rr is a true reduced (r,r)
		// from this iteration's batch, so the recurrence never compounds;
		// only the final subtraction is subject to cancellation.
		rn = math.Sqrt(math.Max(rr-alpha*alpha, 0))
		res.Iterations = it
		res.record(prm, rn)
		if callback != nil {
			callback(it, r)
		}
		if k := badNorm(rn); k != 0 {
			res.fail(prm, "pipegcr", k, it, rn)
			break
		}
		if converged(prm, rn, res.Residual0) {
			res.Converged = true
			break
		}
		if stag.stalled(rn) {
			res.fail(prm, "pipegcr", BreakdownStagnation, it, rn)
			break
		}
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
