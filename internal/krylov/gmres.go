package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// gmresCore implements restarted right-preconditioned GMRES. With
// flexible=true it is FGMRES (Saad): the preconditioned directions
// Z_j = M⁻¹·v_j are stored so the preconditioner may change between
// iterations (paper §III-A: required when the preconditioner contains
// inner iterations). With flexible=false the update is reconstructed as
// M⁻¹(V·y), which assumes a fixed linear M.
//
// With prm.Pipelined set on a rank-collective solve (Reducer != nil)
// the Arnoldi orthogonalization switches from modified Gram–Schmidt
// (j+2 reductions per iteration) to reorthogonalized classical
// Gram–Schmidt — CGS2, "twice is enough" — with the norm recurrence
// h_{j+1,j}² = (w,w) − Σᵢ h_{ij}²: exactly TWO batched reductions per
// iteration regardless of the Krylov dimension j (GCR does the same). A
// single CGS pass would be one reduction, but its orthogonality decays
// like ε·(‖r₀‖/‖r_j‖)², so the Givens residual estimate stagnates near
// √ε relative and convergence past ~1e-8 is never detected; the second
// pass restores ε-level orthogonality and classical convergence. The
// Givens residual recurrence itself needs no further reductions.
func gmresCore(a Op, m Preconditioner, b, x la.Vec, prm Params, flexible bool) Result {
	n := a.N()
	mr := prm.restart()
	telStart := prm.begin()
	pipe := prm.Pipelined && prm.Reducer != nil
	method := "gmres"
	if flexible {
		method = "fgmres"
	}
	if pipe {
		method = "pipe" + method
	}

	if err := prm.consistent(x, b); err != nil {
		var res Result
		res.failEntry(prm, err)
		res.finish(prm, telStart)
		return res
	}
	ws := prm.workspace(n)
	r, w := ws.vec(), ws.vec()
	a.Apply(x, r)
	prm.vaypx(r, -1, b)
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn)
	if k := badNorm(rn); k != 0 {
		res.fail(prm, method, k, 0, rn)
		res.Residual = rn
		res.finish(prm, telStart)
		return res
	}
	if converged(prm, rn, res.Residual0) || rn == 0 {
		res.Converged = true
		res.Residual = rn
		res.finish(prm, telStart)
		return res
	}
	stag := newStagGuard(prm)

	// The basis grows with the iteration: v[j+1] and z[j] are taken from
	// the workspace when iteration j first needs them (and kept across
	// restart cycles), so a solve that converges in k iterations holds k+1
	// (+k flexible) n-vectors, not the whole restart window.
	v := make([]la.Vec, mr+1)
	basis := func(vs []la.Vec, i int) la.Vec {
		if vs[i] == nil {
			vs[i] = ws.vec()
			res.BasisVectors++
		}
		return vs[i]
	}
	var z []la.Vec
	var zt, u la.Vec // fixed-M path: M⁻¹·v_j, and the update M⁻¹(V·y)
	if flexible {
		z = make([]la.Vec, mr)
	} else {
		zt, u = ws.vec(), ws.vec()
	}
	h := make([]float64, (mr+1)*mr) // Hessenberg, h[i*mr+j]
	cs := make([]float64, mr)
	sn := make([]float64, mr)
	g := make([]float64, mr+1)
	var xs, ys []la.Vec
	if pipe {
		xs = make([]la.Vec, 0, mr+2)
		ys = make([]la.Vec, 0, mr+2)
	}

	it := 0
	for it < prm.MaxIt {
		// Start/restart the Arnoldi process from the current residual.
		a.Apply(x, r)
		prm.vaypx(r, -1, b)
		beta := prm.norm2(r)
		if k := badNorm(beta); k != 0 {
			res.fail(prm, method, k, it, beta)
			rn = beta
			break
		}
		if converged(prm, beta, res.Residual0) {
			res.Converged = true
			rn = beta
			break
		}
		prm.vcopy(basis(v, 0), r)
		prm.vscale(v[0], 1/beta)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j := 0
		for ; j < mr && it < prm.MaxIt; j++ {
			it++
			if flexible {
				m.Apply(v[j], basis(z, j))
				a.Apply(z[j], w)
			} else {
				m.Apply(v[j], zt)
				a.Apply(zt, w)
			}
			var hj1 float64
			if pipe {
				// CGS2: two passes of classical Gram–Schmidt, each ONE
				// batched reduction [(w,v_0)…(w,v_j), (w,w)]. A single pass
				// would be one reduction, but its orthogonality decays like
				// ε·(‖r₀‖/‖r_j‖)², stalling the Givens residual estimate
				// near √ε relative; the second pass removes the O(ε)
				// residue, and the norm recurrence h² = (w,w) − Σ(w,vᵢ)² is
				// then evaluated on the second pass's tiny coefficients,
				// where cancellation is harmless.
				for i := 0; i <= j; i++ {
					h[i*mr+j] = 0 // column may hold a previous restart cycle
				}
				for pass := 0; pass < 2; pass++ {
					xs, ys = xs[:0], ys[:0]
					for i := 0; i <= j; i++ {
						xs, ys = append(xs, w), append(ys, v[i])
					}
					xs, ys = append(xs, w), append(ys, w)
					d := prm.dots(xs, ys)
					rec := d[j+1]
					for i := 0; i <= j; i++ {
						h[i*mr+j] += d[i]
						prm.vaxpy(w, -d[i], v[i])
						rec -= d[i] * d[i]
					}
					hj1 = math.Sqrt(math.Max(rec, 0))
				}
			} else {
				// Modified Gram–Schmidt.
				for i := 0; i <= j; i++ {
					hij := prm.dot(w, v[i])
					h[i*mr+j] = hij
					prm.vaxpy(w, -hij, v[i])
				}
				hj1 = prm.norm2(w)
			}
			h[(j+1)*mr+j] = hj1
			if hj1 != 0 {
				prm.vcopy(basis(v, j+1), w)
				prm.vscale(v[j+1], 1/hj1)
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i*mr+j] + sn[i]*h[(i+1)*mr+j]
				h[(i+1)*mr+j] = -sn[i]*h[i*mr+j] + cs[i]*h[(i+1)*mr+j]
				h[i*mr+j] = t
			}
			// New rotation to annihilate h[j+1][j].
			den := math.Hypot(h[j*mr+j], hj1)
			if den == 0 {
				res.fail(prm, method, BreakdownZeroPivot, it, den)
				j++
				break
			}
			cs[j] = h[j*mr+j] / den
			sn[j] = hj1 / den
			h[j*mr+j] = den
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			rn = math.Abs(g[j+1])
			res.Iterations = it
			res.record(prm, rn)
			if k := badNorm(rn); k != 0 {
				res.fail(prm, method, k, it, rn)
				j++
				break
			}
			if converged(prm, rn, res.Residual0) {
				j++
				res.Converged = true
				break
			}
			if stag.stalled(rn) {
				res.fail(prm, method, BreakdownStagnation, it, rn)
				j++
				break
			}
		}
		// Solve the j×j triangular system and update x.
		y := make([]float64, j)
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i*mr+k] * y[k]
			}
			y[i] = s / h[i*mr+i]
		}
		if flexible {
			for i := 0; i < j; i++ {
				prm.vaxpy(x, y[i], z[i])
			}
		} else {
			prm.vzero(zt)
			for i := 0; i < j; i++ {
				prm.vaxpy(zt, y[i], v[i])
			}
			m.Apply(zt, u)
			prm.vaxpy(x, 1, u)
		}
		if res.Converged || res.Breakdown {
			break
		}
	}
	res.Residual = rn
	res.finish(prm, telStart)
	return res
}

// GMRES solves A·x = b by restarted right-preconditioned GMRES(m). The
// preconditioner must be a fixed linear operator; for nonlinear
// preconditioners use FGMRES or GCR.
func GMRES(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	return gmresCore(a, m, b, x, prm, false)
}

// FGMRES solves A·x = b by flexible restarted GMRES(m), tolerating a
// preconditioner that changes between iterations (paper §III-A). Preferred
// for extremely ill-conditioned problems for its numerical stability.
func FGMRES(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	return gmresCore(a, m, b, x, prm, true)
}
