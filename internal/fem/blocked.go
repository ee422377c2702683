package fem

import (
	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// BlockedChebyshev runs k Chebyshev sweeps cache-blocked over the slab
// partition of a Resident operator: instead of k full passes over the
// level (each streaming every element's coefficients through cache), the
// sweeps advance slab-by-slab in a wavefront, so a slab's element data is
// applied for step i+1 while it is still resident from step i — and every
// wave is spread over all Problem.Workers.
//
// The temporal dependency is the slab graph of the owner-computes
// scatter: advancing step i+1 on block b needs the step-i operator
// contributions of blocks [b, b+D], and applying block b at step i reads
// p values owned by blocks [b-D, b], where D = Resident.dep is the
// largest slab span of any shared node (1 for contiguous slabs of a
// lexicographic element order).
//
// Schedule (waveSchedule). The B blocks form NG = ⌈B/G⌉ groups of
// G = min(Workers, B) consecutive blocks; a dependency that spans D
// blocks spans at most Dg = min(⌈D/G⌉, NG-1) groups. Slot j — the j-th
// advance+apply pair; a nonzero guess adds a leading apply-only slot for
// A·x — visits group g at wave w = g + j·(Dg+1). A wave has two phases,
// each over every active (slot, block) item with a barrier after it:
// first all advances, then all applies — the phases of one par.Part
// (SmoothPart). G = 1 is the block-at-a-time wavefront (maximal temporal
// reuse, what a 1-worker rank runs); G = B has one group and Dg = 0, i.e.
// the full-grid recurrence with its vector updates fused — one code path
// for both.
//
// Hazards. Write (j, g) for slot j on group g, wave w = g + j·(Dg+1).
//
//	phase    item          reads                          writes
//	advance  (j, b∈g)      bufs[b..b+D], ap[int(b)]:      r, p, x of own(b)
//	                       slot j-1's applies
//	apply    (j, b∈g)      p (x in the leading slot)      ap[int(b)], bufs[b]
//	                       on own(b-D..b): slot j's
//	                       advances
//
// Why no item races with another:
//
//   - advance (j, g) after the applies it reads: blocks b..b+D lie in
//     groups g..g+Dg, applied by slot j-1 no later than wave
//     g+Dg+(j-1)(Dg+1) = w-1.
//   - apply (j, g) after the advances it reads: own(b-D..b) lie in groups
//     g-Dg..g, advanced by slot j in waves ≤ w, phase 1; and not yet
//     overwritten: slot j+1 reaches group g-Dg at wave w+1.
//   - advance (j, g) overwrites p on own(g), last read by slot j-1's
//     applies of groups g..g+Dg (waves ≤ w-1); apply (j, g) overwrites
//     bufs[b] and ap[int(b)], last read by slot j's advances of groups
//     g-Dg..g (waves ≤ w, phase 1, before this phase's barrier).
//   - within a phase every item writes only what its own block owns
//     (own(b), int(b), bufs[b] are disjoint across blocks) and reads only
//     what no item of that phase writes: advances read bufs/ap and write
//     r/p/x, applies read p/x and write bufs/ap.
//
// Each dof's updates are therefore the full-grid recurrence term for
// term, bit-identical at any worker count.
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
	adv, app    []waveItem // the wave in flight
}

// waveItem is one (slot, block) unit of work of a wave phase.
type waveItem struct{ slot, blk int }

// waveSchedule is the grouped two-phase wavefront of one Smooth call (see
// BlockedChebyshev).
type waveSchedule struct {
	blocks, group, groups int // B, G, NG
	stride                int // Dg+1
	slots, lead, steps    int // lead = 1 with the apply-only slot for A·x
}

func newWaveSchedule(blocks, dep, workers, steps int, zeroGuess bool) waveSchedule {
	s := waveSchedule{blocks: blocks, group: min(max(1, workers), blocks), slots: steps, steps: steps}
	s.groups = (blocks + s.group - 1) / s.group
	s.stride = min((dep+s.group-1)/s.group, s.groups-1) + 1
	if !zeroGuess {
		s.lead = 1
		s.slots++
	}
	return s
}

// waves returns the wave count: the last slot's last group, plus one.
func (s waveSchedule) waves() int { return s.groups + (s.slots-1)*s.stride }

// items appends wave w's advance and apply items, slots ascending and
// blocks ascending within a slot. The leading slot only applies and the
// last step only advances.
func (s waveSchedule) items(w int, adv, app []waveItem) ([]waveItem, []waveItem) {
	for j := 0; j < s.slots && j*s.stride <= w; j++ {
		g := w - j*s.stride
		if g >= s.groups {
			continue
		}
		step := j - s.lead
		for b := g * s.group; b < min((g+1)*s.group, s.blocks); b++ {
			if step >= 0 {
				adv = append(adv, waveItem{j, b})
			}
			if step < s.steps-1 {
				app = append(app, waveItem{j, b})
			}
		}
	}
	return adv, app
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
	par.Run(c.R.P.Workers, c.SmoothPart(b, x, zeroGuess))
}

// SmoothPart is Smooth as a par.Part, for a caller that runs the visit
// inside a larger job (the V-cycle): wave w is phases 2w (advances) and
// 2w+1 (applies), every (slot, block) item claimed on its own, so the pool
// is asked for help once per job and the barriers between waves are
// in-job waits, not dispatches.
func (c *BlockedChebyshev) SmoothPart(b, x la.Vec, zeroGuess bool) par.Part {
	if c.Steps <= 0 {
		return par.Each(1, func(int) {
			if zeroGuess {
				x.Zero()
			}
		})
	}
	info := c.R.ownership()
	p := c.R.P
	sch := newWaveSchedule(info.S, c.R.dep, p.Workers, c.Steps, zeroGuess)
	var bufs *slabBufs
	return par.Part{
		Phases: 2 * sch.waves(),
		Prepare: func(ph int) int {
			if ph == 0 {
				if n := c.R.N(); len(c.r) != n {
					c.r, c.p, c.ap = la.NewVec(n), la.NewVec(n), la.NewVec(n)
				}
				c.coeffs()
				bufs = p.getSlabBufs(info)
			}
			if ph%2 == 0 {
				c.adv, c.app = sch.items(ph/2, c.adv[:0], c.app[:0])
				return len(c.adv)
			}
			return len(c.app)
		},
		Item: func(ph, i int) {
			if ph%2 == 0 {
				it := c.adv[i]
				c.advance(it.slot-sch.lead, it.blk, info, b, x, bufs, zeroGuess)
				return
			}
			it := c.app[i]
			src := c.p
			if it.slot < sch.lead {
				src = x // A·x for the initial residual
			}
			ks := c.R.getScratch()
			c.R.applyBlock(it.blk, src, c.ap, bufs.bufs[it.blk], ks)
			c.R.scratch.Put(ks)
		},
		Done: func() { p.slabPool.Put(bufs) },
	}
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
