package mg

import (
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// The V-cycle is written once, over a view of the hierarchy: MG runs it on
// the whole grid, DistMG on one rank's owned+ghost window of every level.
// What a view fixes is the layout — which operator reaches the level's
// rows (the level operator itself, or a halo-exchanging wrapper of its
// kernel), which smoother form runs over it, which node boxes the
// transfers cover, and which index windows the BLAS-1 updates touch. The
// recurrence, the order of its steps and every floating-point sum are the
// cycle's, so the two backends cannot drift apart.

// levelSmoother is the smoother form a view runs on a level:
// *fem.BlockedChebyshev or *krylov.Chebyshev, the same recurrence.
type levelSmoother interface {
	Smooth(b, x la.Vec, zeroGuess bool)
}

// transfer moves between a level and the next-finer one over the view's
// node boxes: *Prolongation on the whole grid, rankTransfer on a rank.
type transfer interface {
	Apply(uc, uf la.Vec)          // uf = P·uc
	ApplyTranspose(rf, rc la.Vec) // rc = Pᵀ·rf
}

// levelView is one level as the cycle sees it.
type levelView struct {
	op       krylov.Op
	smoother levelSmoother
	p        transfer  // to and from the next-finer level; unused on the finest
	spans    []la.Span // BLAS-1 windows; nil is the whole vector
	r, e, bc la.Vec    // residual, correction, restricted right-hand side
	tel      levelTel  // zero on a rank: telemetry is the whole grid's
}

// cycle is a V-cycle over a view; lev[0] is finest. coarsest solves the
// last level into a zeroed x (every level is entered from a zero guess).
type cycle struct {
	lev      []levelView
	coarsest func(b, x la.Vec)
}

// vcycle improves x, zero on the view's spans on entry, towards A⁻¹·b.
func (c *cycle) vcycle(l int, b, x la.Vec) {
	if l == len(c.lev)-1 {
		c.coarsest(b, x)
		return
	}
	v, next := &c.lev[l], &c.lev[l+1]
	v.smooth(b, x, true)
	// Residual and restriction.
	st := v.tel.op.Start()
	v.op.Apply(x, v.r)
	v.tel.op.Stop(st)
	v.tel.ops.Inc()
	v.r.AYPXSpans(-1, b, v.spans)
	st = v.tel.restrict.Start()
	next.p.ApplyTranspose(v.r, next.bc)
	v.tel.restrict.Stop(st)
	// Coarse correction, from a zero guess.
	next.e.ZeroSpans(next.spans)
	c.vcycle(l+1, next.bc, next.e)
	st = v.tel.prolong.Start()
	next.p.Apply(next.e, v.e)
	v.tel.prolong.Stop(st)
	x.AXPYSpans(1, v.e, v.spans)
	v.smooth(b, x, false)
}

// smooth runs one timed smoother visit.
func (v *levelView) smooth(b, x la.Vec, zeroGuess bool) {
	st := v.tel.smooth.Start()
	v.smoother.Smooth(b, x, zeroGuess)
	v.tel.smooth.Stop(st)
	v.tel.smooths.Inc()
}

// smoothOnly is the coarsest level of a hierarchy without a coarse
// solver: one smoother visit from the zero guess.
func (c *cycle) smoothOnly(b, x la.Vec) {
	c.lev[len(c.lev)-1].smooth(b, x, true)
}
