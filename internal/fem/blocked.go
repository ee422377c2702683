package fem

import (
	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// BlockedChebyshev runs k Chebyshev sweeps cache-blocked over the slab
// partition of a Resident operator: instead of k full passes over the
// level (each streaming every element's coefficients through cache), the
// sweeps advance slab-by-slab in a wavefront, so a slab's element data is
// applied for step i+1 while it is still resident from step i.
//
// The temporal dependency is the slab graph of the owner-computes
// scatter: advancing step i+1 on block b needs the step-i operator
// contributions of blocks [b, b+D], and applying block b at step i reads
// p values owned by blocks [b-D, b], where D = Resident.Dep() is the
// largest slab span of any shared node (1 for contiguous slabs of a
// lexicographic element order). Scheduling (slot j, block b) at wave
// w = b + j·(D+1) — slot j = the j-th advance+apply pair — satisfies both
// with a barrier only between waves; concurrent slots are ≥D+1 blocks
// apart, so they touch disjoint dofs and the result is bit-identical at
// any worker count, matching the full-grid recurrence term for term.
//
// The last step's operator application is never computed (it only feeds
// the next residual, never x), as in krylov.Chebyshev: k steps cost k-1
// applies from a zero guess, k otherwise.
type BlockedChebyshev struct {
	R       *Resident
	InvDiag la.Vec  // Jacobi preconditioner diagonal (shared with krylov.Jacobi)
	Lo, Hi  float64 // target interval; [0.2λmax, 1.1λmax] as in the paper
	Steps   int

	alpha, beta []float64
	r, p, ap    la.Vec
}

// NewBlockedChebyshev builds a blocked smoother targeting [0.2λ, 1.1λ].
// It is NOT safe for concurrent Smooth calls: work vectors and overlap
// buffers persist across calls on one instance.
func NewBlockedChebyshev(r *Resident, invDiag la.Vec, lambdaMax float64, steps int) *BlockedChebyshev {
	return &BlockedChebyshev{R: r, InvDiag: invDiag, Lo: 0.2 * lambdaMax, Hi: 1.1 * lambdaMax, Steps: steps}
}

// coeffs precomputes the scalar recurrence exactly as the unblocked
// smoother evaluates it, so the per-dof updates agree bitwise.
func (c *BlockedChebyshev) coeffs() {
	if len(c.alpha) == c.Steps {
		return
	}
	c.alpha = make([]float64, c.Steps)
	c.beta = make([]float64, c.Steps)
	d := (c.Hi + c.Lo) / 2
	half := (c.Hi - c.Lo) / 2
	c.alpha[0] = 1 / d
	for i := 1; i < c.Steps; i++ {
		var beta float64
		if i == 1 {
			beta = 0.5 * (half * c.alpha[0]) * (half * c.alpha[0])
		} else {
			beta = (half * c.alpha[i-1] / 2) * (half * c.alpha[i-1] / 2)
		}
		c.beta[i] = beta
		c.alpha[i] = 1 / (d - beta/c.alpha[i-1])
	}
}

// Smooth performs Steps blocked Chebyshev iterations on A·x = b, updating
// x in place. zeroGuess skips the initial operator application when x = 0.
func (c *BlockedChebyshev) Smooth(b, x la.Vec, zeroGuess bool) {
	if c.Steps <= 0 {
		if zeroGuess {
			x.Zero()
		}
		return
	}
	info := c.R.ownership()
	n := c.R.N()
	if c.r == nil || len(c.r) != n {
		c.r, c.p, c.ap = la.NewVec(n), la.NewVec(n), la.NewVec(n)
	}
	c.coeffs()
	p := c.R.P
	bufs := p.getSlabBufs(info)
	B := info.S
	stride := c.R.dep + 1
	slots := c.Steps
	if !zeroGuess {
		slots++ // leading apply-only slot: A·x for the initial residual
	}
	maxWave := (B - 1) + (slots-1)*stride
	for w := 0; w <= maxWave; w++ {
		par.For(p.Workers, slots, func(jlo, jhi int) {
			ks := c.R.getScratch()
			for j := jlo; j < jhi; j++ {
				blk := w - j*stride
				if blk < 0 || blk >= B {
					continue
				}
				if !zeroGuess && j == 0 {
					c.R.applyBlock(blk, x, c.ap, bufs.bufs[blk], ks)
					continue
				}
				i := j
				if !zeroGuess {
					i = j - 1
				}
				c.advance(i, blk, info, b, x, bufs, zeroGuess)
				if i < c.Steps-1 {
					c.R.applyBlock(blk, c.p, c.ap, bufs.bufs[blk], ks)
				}
			}
			c.R.scratch.Put(ks)
		})
	}
	p.slabPool.Put(bufs)
}

// Apply lets the blocked smoother act as a Preconditioner (z = smooth(r)
// from a zero initial guess).
func (c *BlockedChebyshev) Apply(r, z la.Vec) { c.Smooth(r, z, true) }

// advance performs step i's fused vector updates for the dofs owned by
// block b: fold the step-(i-1) operator contributions (direct rows for
// interior nodes, the ascending-slab buffer merge for shared nodes,
// identity rows for constrained dofs) into r, then z, p and x in one
// pass. Every expression mirrors the unblocked BLAS-1 sequence exactly:
// AYPX/AXPY/PointwiseMult term order is preserved so results are
// bit-identical.
func (c *BlockedChebyshev) advance(i, b int, info *slabInfo, bvec, x la.Vec, bufs *slabBufs, zeroGuess bool) {
	mask := c.R.P.BC.Mask
	invd := c.InvDiag
	rv, pv, ap := c.r, c.p, c.ap
	needAp := i > 0 || !zeroGuess
	alpha := c.alpha[i]
	var alphaPrev, beta float64
	if i > 0 {
		alphaPrev = c.alpha[i-1]
		beta = c.beta[i]
	}

	step := func(d int, apd float64) {
		if i == 0 {
			var rd float64
			if zeroGuess {
				rd = bvec[d] // r = b
			} else {
				rd = -apd + bvec[d] // r = A·x; r.AYPX(-1, b)
			}
			rv[d] = rd
			z := invd[d] * rd // z = M⁻¹r
			pv[d] = z         // p = z
			if zeroGuess {
				x[d] = 0 + alpha*z // x.Zero(); x.AXPY(alpha, p)
			} else {
				x[d] += alpha * z
			}
		} else {
			rd := rv[d] + (-alphaPrev)*apd // r.AXPY(-alpha, ap)
			rv[d] = rd
			z := invd[d] * rd
			pd := beta*pv[d] + z // p.AYPX(beta, z)
			pv[d] = pd
			x[d] += alpha * pd
		}
	}

	for _, sp := range c.R.ownInterior[b] {
		for d := sp.Lo; d < sp.Hi; d++ {
			var apd float64
			if needAp {
				if mask[d] {
					if i == 0 {
						apd = x[d] // identity row of A·x
					} else {
						apd = pv[d] // identity row of A·p
					}
				} else {
					apd = ap[d]
				}
			}
			step(d, apd)
		}
	}
	for _, t32 := range c.R.ownShared[b] {
		t := int(t32)
		var a [3]float64
		if needAp {
			for s := int(info.minSlab[t]); s <= int(info.maxSlab[t]); s++ {
				o := 3 * (t - int(info.bufLo[s]))
				bb := bufs.bufs[s]
				a[0] += bb[o]
				a[1] += bb[o+1]
				a[2] += bb[o+2]
			}
		}
		d0 := 3 * int(info.shared[t])
		for cc := 0; cc < 3; cc++ {
			d := d0 + cc
			apd := a[cc]
			if needAp && mask[d] {
				if i == 0 {
					apd = x[d]
				} else {
					apd = pv[d]
				}
			}
			step(d, apd)
		}
	}
}
