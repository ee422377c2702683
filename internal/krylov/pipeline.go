package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// Latency-tolerant ("pipelined") Krylov variants, selected by
// Params.Pipelined on rank-collective solves. At 64–512 simulated ranks
// the dominant per-iteration cost is no longer flops but allreduce
// latency — O(log P) message hops per reduction — so the classical
// iterations (CG: 3 reductions, GCR: j+3, FGMRES: j+2) are restructured
// to fold their inner products into batched reductions through the
// BatchReducer hook:
//
//   - CG uses the Chronopoulos–Gear recurrences (this file): the three
//     scalars γ=(r,u), δ=(w,u), ρ=(r,r) reduce together, ONE reduction
//     per iteration, and the search/update vectors are advanced by
//     recurrences instead of recomputation.
//   - GCR and FGMRES keep their iteration and swap only the
//     orthogonalisation, as a branch inside gcr.go and gmres.go: modified
//     Gram–Schmidt becomes reorthogonalised classical Gram–Schmidt (CGS2)
//     with a norm recurrence, TWO batched reductions per iteration
//     regardless of the Krylov dimension j. Both files say why one pass
//     is not enough.
//
// The recurrences change the floating-point summation order, so results
// differ from the classical variants in the last bits: ≤ 1e-10 in the
// solution and ±2 iterations, on the property-test matrices and through
// the real rank reducer alike. They are not bit-identical across rank
// counts — the reducer sums per-rank partials, so its rounding follows
// the decomposition — which is exactly what a single Gram–Schmidt pass
// amplified into 62 iterations against 37. With Reducer == nil the
// Pipelined flag is ignored entirely and the serial classical path runs
// bit-for-bit.

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
