package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// roundingLevel·(j+1)·‖A·z_j‖ is where an Arnoldi remainder h_{j+1,j} or
// a rotated pivot counts as zero. Modified Gram–Schmidt of a vector in the
// span of j+1 orthonormal vectors leaves about (j+1)·ε of its norm (1e-17
// to 1e-16 on the stalled test problem); the factor 16 is the margin, and
// healthy solves sit far above (the registry's scenarios above 1e-3).
const roundingLevel = 16 * 0x1p-52

// gmresCore implements restarted right-preconditioned GMRES. With
// flexible=true it is FGMRES (Saad): the preconditioned directions
// Z_j = M⁻¹·v_j are stored so the preconditioner may change between
// iterations (paper §III-A: required when the preconditioner contains
// inner iterations). With flexible=false the update is reconstructed as
// M⁻¹(V·y), which assumes a fixed linear M.
//
// The Arnoldi step is modified Gram–Schmidt with each update fused to the
// next reduction: h₀ = (w, v₀), then w −= hᵢ·vᵢ and h_{i+1} = (w, v_{i+1})
// in one sweep over w (Params.axpyDot), the last sweep returning ‖w‖² for
// h_{j+1,j}. An h_{j+1,j} at rounding level (roundingLevel) ends the
// cycle: converged when the Givens residual meets the tolerance, else a
// BreakdownZeroPivot, as is a rotated pivot at rounding level. That sweeps w j+2 times per iteration instead of 2j+3 (four
// vector streams per basis vector instead of five), and it is bitwise the
// two-step form: each sweep performs the update and the dot in their own
// expression shapes and order, and every dot still reads the w the
// previous update left. A rank sweeps its own rows and reduces once per
// sweep (Reducer.AXPYDot; see axpyDot).
func gmresCore(a Op, m Preconditioner, b, x la.Vec, prm Params, flexible bool) Result {
	n := a.N()
	mr := prm.restart()
	telStart := prm.begin()
	method := "gmres"
	if flexible {
		method = "fgmres"
	}

	ws := prm.workspace(n)
	r, w := ws.vec(), ws.vec()
	ws.apply(a.Apply, x, r)
	r.AYPX(-1, b)
	res := Result{Residual0: prm.norm2(r)}
	rn := res.Residual0
	res.record(prm, rn, nil)
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

	// The basis grows with the iteration: v[j+1] and z[j] are taken from
	// the workspace when iteration j first needs them (and kept across
	// restart cycles), so a solve that converges in k iterations holds k+1
	// (+k flexible) vectors, not the whole restart window.
	v, z := ws.basis(mr)
	basis := func(vs []la.Vec, i int) la.Vec {
		if vs[i] == nil {
			vs[i] = ws.vec()
			res.BasisVectors++
		}
		return vs[i]
	}
	var zt, u la.Vec // fixed-M path: M⁻¹·v_j, and the update M⁻¹(V·y)
	if !flexible {
		zt, u = ws.vec(), ws.vec()
	}
	h, cs, sn, g, y := ws.hessenberg(mr) // Hessenberg h[i*mr+j]

	it := 0
	for it < prm.MaxIt {
		// Start/restart the Arnoldi process from the current residual.
		ws.apply(a.Apply, x, r)
		r.AYPX(-1, b)
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
		basis(v, 0).Copy(r)
		v[0].Scale(1 / beta)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j := 0
		for ; j < mr && it < prm.MaxIt; j++ {
			it++
			// w = A·M⁻¹·v_j: M⁻¹·v_j feeds A as the preconditioner left
			// it, full length, and is kept as z_j on the flexible path.
			zj := zt
			if flexible {
				zj = basis(z, j)
			}
			ws.applyFull(a.Apply, ws.apply(m.Apply, v[j], zj), w)
			// Modified Gram–Schmidt, one sweep per basis vector: the update
			// against v_i also forms (w, v_{i+1}), and the last one (w, w).
			hij := prm.dot(w, v[0])
			for i := 0; i < j; i++ {
				h[i*mr+j] = hij
				hij = prm.axpyDot(w, -hij, v[i], v[i+1])
			}
			h[j*mr+j] = hij
			ww := prm.axpyDot(w, -hij, v[j], w)
			hj1 := math.Sqrt(ww)
			h[(j+1)*mr+j] = hj1
			for i := 0; i <= j; i++ { // ‖A·z_j‖², by Pythagoras
				ww += h[i*mr+j] * h[i*mr+j]
			}
			noise := roundingLevel * float64(j+1) * math.Sqrt(ww)
			lost := hj1 <= noise
			if !lost {
				basis(v, j+1).Copy(w)
				v[j+1].Scale(1 / hj1)
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i*mr+j] + sn[i]*h[(i+1)*mr+j]
				h[(i+1)*mr+j] = -sn[i]*h[i*mr+j] + cs[i]*h[(i+1)*mr+j]
				h[i*mr+j] = t
			}
			// New rotation to annihilate h[j+1][j].
			den := math.Hypot(h[j*mr+j], hj1)
			if den <= noise {
				// A z_j lies in the span of the earlier columns: the
				// update leaves this column out.
				res.fail(prm, method, BreakdownZeroPivot, it, den)
				break
			}
			cs[j] = h[j*mr+j] / den
			sn[j] = hj1 / den
			h[j*mr+j] = den
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			rn = math.Abs(g[j+1])
			res.Iterations = it
			res.record(prm, rn, nil)
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
			if lost {
				// The Krylov space is invariant and the least-squares
				// residual still misses the tolerance: no restart can
				// add a direction.
				res.fail(prm, method, BreakdownZeroPivot, it, hj1)
				j++
				break
			}
		}
		// Solve the j×j triangular system and update x.
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i*mr+k] * y[k]
			}
			y[i] = s / h[i*mr+i]
		}
		if flexible {
			for i := 0; i < j; i++ {
				x.AXPY(y[i], z[i])
			}
		} else {
			zt.Zero()
			for i := 0; i < j; i++ {
				zt.AXPY(y[i], v[i])
			}
			ws.apply(m.Apply, zt, u)
			x.AXPY(1, u)
		}
		if res.Converged || res.Err != nil {
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
