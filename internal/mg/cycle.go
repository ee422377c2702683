package mg

import (
	"time"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
	"ptatin3d/internal/telemetry"
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
//
// A step of the cycle whose representation can hand over its schedule — a
// blocked smoother visit, a resident apply, a whole-grid transfer — joins
// job as a par.Part instead of running at once, and so do the BLAS-1
// updates between them; the parts gathered run as one pool job (one
// request for help, the steps separated by its barriers) when a step that
// cannot join comes up, and at the end of the cycle. On a whole-grid view
// of resident levels that is one job down to the coarse solve and one
// back up. The order of the steps, and what each computes, is the same
// either way.
type cycle struct {
	lev      []levelView
	coarsest func(b, x la.Vec)
	workers  int // participants of a job
	job      []par.Part
}

// The schedules a step may offer, besides a resident-backed operator's
// (op.ResidentBacked). *fem.BlockedChebyshev and *Prolongation do; a
// rank's halo operators and transfers, the CSR levels and
// krylov.Chebyshev do not.
type (
	smoothParter interface {
		SmoothPart(b, x la.Vec, zeroGuess bool) par.Part
	}
	transferParter interface {
		ApplyPart(uc, uf la.Vec) par.Part
		ApplyTransposePart(rf, rc la.Vec) par.Part
	}
)

// run improves x, zero on the view's spans on entry, towards A⁻¹·b by one
// V-cycle.
func (c *cycle) run(b, x la.Vec) {
	c.vcycle(0, b, x)
	c.flush()
}

// flush runs the gathered parts.
func (c *cycle) flush() {
	if len(c.job) > 0 {
		par.Run(c.workers, c.job...)
		clear(c.job)
		c.job = c.job[:0]
	}
}

// add lets a step that has its schedule to offer join the job. It is
// timed from its first phase to its last, and counted.
func (c *cycle) add(p par.Part, t *telemetry.Timer, n *telemetry.Counter) {
	if t != nil || n != nil {
		prepare, done := p.Prepare, p.Done
		var st time.Time
		p.Prepare = func(ph int) int {
			if ph == 0 {
				st = t.Start()
			}
			return prepare(ph)
		}
		p.Done = func() {
			if done != nil {
				done()
			}
			t.Stop(st)
			n.Inc()
		}
	}
	c.job = append(c.job, p)
}

// call runs a step that has none, after everything gathered before it.
func (c *cycle) call(f func(), t *telemetry.Timer, n *telemetry.Counter) {
	c.flush()
	st := t.Start()
	f()
	t.Stop(st)
	n.Inc()
}

// blas schedules a BLAS-1 update over the view's windows: one more item
// of a job under way, done on the spot otherwise.
func (c *cycle) blas(f func()) {
	if len(c.job) == 0 {
		f()
		return
	}
	c.job = append(c.job, par.Each(1, func(int) { f() }))
}

// vcycle schedules level l's share of the cycle on b and x, and runs what
// has to have run before the coarse solve.
func (c *cycle) vcycle(l int, b, x la.Vec) {
	if l == len(c.lev)-1 {
		c.flush()
		c.coarsest(b, x)
		return
	}
	v, next := &c.lev[l], &c.lev[l+1]
	c.smooth(v, b, x, true)
	// Residual and restriction.
	if rb, ok := v.op.(op.ResidentBacked); ok {
		c.add(rb.Resident().ApplyPart(x, v.r), v.tel.op, v.tel.ops)
	} else {
		c.call(func() { v.op.Apply(x, v.r) }, v.tel.op, v.tel.ops)
	}
	c.blas(func() { v.r.AYPXSpans(-1, b, v.spans) })
	tp, parted := next.p.(transferParter)
	if parted {
		c.add(tp.ApplyTransposePart(v.r, next.bc), v.tel.restrict, nil)
	} else {
		c.call(func() { next.p.ApplyTranspose(v.r, next.bc) }, v.tel.restrict, nil)
	}
	// Coarse correction, from a zero guess.
	c.blas(func() { next.e.ZeroSpans(next.spans) })
	c.vcycle(l+1, next.bc, next.e)
	if parted {
		c.add(tp.ApplyPart(next.e, v.e), v.tel.prolong, nil)
	} else {
		c.call(func() { next.p.Apply(next.e, v.e) }, v.tel.prolong, nil)
	}
	c.blas(func() { x.AXPYSpans(1, v.e, v.spans) })
	c.smooth(v, b, x, false)
}

// smooth schedules one smoother visit.
func (c *cycle) smooth(v *levelView, b, x la.Vec, zeroGuess bool) {
	if sp, ok := v.smoother.(smoothParter); ok {
		c.add(sp.SmoothPart(b, x, zeroGuess), v.tel.smooth, v.tel.smooths)
	} else {
		c.call(func() { v.smoother.Smooth(b, x, zeroGuess) }, v.tel.smooth, v.tel.smooths)
	}
}

// smoothOnly is the coarsest level of a hierarchy without a coarse
// solver: one smoother visit from the zero guess.
func (c *cycle) smoothOnly(b, x la.Vec) {
	c.smooth(&c.lev[len(c.lev)-1], b, x, true)
	c.flush()
}
