package fem

import (
	"math"
	"sync"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// Resident is the stored-coefficient tensor operator restructured for
// cache-blocked smoothing — the "Tensor C" variant of Table I: the
// combined metric+coefficient tensor (∇ξ)ᵀ(ωη)(∇ξ) is precomputed at
// every quadrature point at Setup, removing the Jacobian inversion from
// the apply at the cost of streaming 15 floats per quadrature point. The
// paper stores 21 rank-4 entries; we store the equivalent isotropic
// factorization sM (6 entries of the scaled metric Gram matrix, packed
// symmetric order 00,01,02,11,12,22) plus √s·K (9 entries of the scaled
// inverse Jacobian, row-major, s = η·w·detJ), which reproduces the same
// action (see DESIGN.md, "Substitutions (paper → this repo)"). The apply
// is organized around per-slab "blocks" whose element data, coefficient
// stream and scratch stay resident in cache while a block is processed.
// The per-block entry point applyBlock is what the blocked
// Chebyshev smoother drives slab-by-slab; the whole-vector Apply is the
// same code path plus the ascending-slab merge, so both produce
// bit-identical sums.
//
// F32 selects the single-precision variant the kernel study times beside
// the float64 one (op.TensorF32; no solver runs it): coefficients are
// computed in float64 and rounded once to float32, and the element kernel
// runs in float32 (state rounded at gather, result widened at scatter).
// Global vectors and the owner-computes scatter stay float64 on both
// paths, so the f32 operator is a small perturbation of the f64 one.
type Resident struct {
	P   *Problem
	F32 bool

	c64 []float64
	c32 []float32

	// Blocked-schedule ownership, built once alongside the slab partition:
	// every dof is advanced by exactly one block. ownInterior[b] lists the
	// dof spans of nodes touched only by slab b (plus, for b==0, nodes
	// touched by no element); ownShared[b] lists shared-node indices t
	// (into slabInfo.shared) with minSlab[t]==b. dep is the dependency
	// distance: the largest slab span of any shared node.
	ownOnce     sync.Once
	ownInterior [][]la.Span
	ownShared   [][]int32
	dep         int

	scratch sync.Pool
}

// residentScratch is the per-worker arena of the resident apply: the
// gather/scatter staging batch plus the generic kernel scratch at both
// precisions (only the active one is touched).
type residentScratch struct {
	ue, ye [slabBlock][81]float64
	ks64   kernScratchG[float64]
	ks32   kernScratchG[float32]
}

// NewResident builds a stored-coefficient resident operator; Setup must
// be called again whenever the mesh geometry or viscosity changes.
func NewResident(p *Problem, f32 bool) *Resident {
	r := &Resident{P: p, F32: f32}
	r.Setup()
	return r
}

// Setup (re)computes the stored per-quadrature-point tensors, always in
// float64, rounding once to float32 on the single-precision variant.
func (r *Resident) Setup() {
	p := r.P
	nel := p.DA.NElements()
	if r.F32 {
		if len(r.c32) != 15*NQP*nel {
			r.c32 = make([]float32, 15*NQP*nel)
			r.c64 = nil
		}
	} else {
		if len(r.c64) != 15*NQP*nel {
			r.c64 = make([]float64, 15*NQP*nel)
			r.c32 = nil
		}
	}
	geo := p.geom()
	p.forEachElement(func(e int) {
		for q := 0; q < NQP; q++ {
			jinv, detJ := geomAt(geo, e, q)
			s := p.Eta[NQP*e+q] * W3[q] * detJ
			var c [15]float64
			// Packed scaled metric sM[d][e] = s·Σ_m K[d][m]K[e][m].
			idx := 0
			for d := 0; d < 3; d++ {
				for dd := d; dd < 3; dd++ {
					c[idx] = s * (jinv[d*3]*jinv[dd*3] + jinv[d*3+1]*jinv[dd*3+1] + jinv[d*3+2]*jinv[dd*3+2])
					idx++
				}
			}
			sq := math.Sqrt(s)
			for i := 0; i < 9; i++ {
				c[6+i] = sq * jinv[i]
			}
			base := 15 * (NQP*e + q)
			if r.F32 {
				for i, v := range c {
					r.c32[base+i] = float32(v)
				}
			} else {
				copy(r.c64[base:base+15], c[:])
			}
		}
	})
}

// N returns the number of velocity dofs.
func (r *Resident) N() int { return r.P.DA.NVelDOF() }

// ownership builds the blocked-schedule dof ownership on first use and
// returns the slab partition.
func (r *Resident) ownership() *slabInfo {
	info := r.P.slabs()
	r.ownOnce.Do(func() {
		p := r.P
		S := info.S
		nn := p.DA.NNodes()
		// Interior nodes are touched by exactly one slab: record it. The
		// zero default folds untouched nodes into block 0, whose apply
		// zeroes their (never-scattered) rows so the advance reads 0.
		owner := make([]int32, nn)
		for s := 0; s < S; s++ {
			em := p.Emap[27*info.off[s] : 27*info.off[s+1]]
			for _, n := range em {
				if info.sharedIdx[n] < 0 {
					owner[n] = int32(s)
				}
			}
		}
		r.ownInterior = make([][]la.Span, S)
		for n := 0; n < nn; n++ {
			if info.sharedIdx[n] >= 0 {
				continue
			}
			b := owner[n]
			r.ownInterior[b] = la.AppendSpan(r.ownInterior[b], 3*n, 3*n+3)
		}
		r.ownShared = make([][]int32, S)
		for t := range info.shared {
			b := info.minSlab[t]
			r.ownShared[b] = append(r.ownShared[b], int32(t))
			if d := int(info.maxSlab[t] - info.minSlab[t]); d > r.dep {
				r.dep = d
			}
		}
	})
	return info
}

func (r *Resident) getScratch() *residentScratch {
	if ks, ok := r.scratch.Get().(*residentScratch); ok {
		return ks
	}
	return &residentScratch{}
}

// applyBlock computes block b's element contributions to y = A·u: the
// block's interior dof spans of y are zeroed then accumulated directly in
// ascending element order, and shared-node contributions go to the
// block's overlap buffer buf (zeroed first). No identity rows and no
// shared-node merge — Apply and the blocked smoother compose those, in
// the same ascending-slab order, so their sums agree bitwise.
func (r *Resident) applyBlock(b int, u, y la.Vec, buf []float64, ks *residentScratch) {
	p := r.P
	info := p.slab
	for i := range buf {
		buf[i] = 0
	}
	for _, sp := range r.ownInterior[b] {
		vv := y[sp.Lo:sp.Hi]
		for i := range vv {
			vv[i] = 0
		}
	}
	mask := p.BC.Mask
	bufOff := 3 * int(info.bufLo[b])
	e0, e1 := info.off[b], info.off[b+1]
	for blk := e0; blk < e1; blk += slabBlock {
		bn := e1 - blk
		if bn > slabBlock {
			bn = slabBlock
		}
		for i := 0; i < bn; i++ {
			p.gatherVec(blk+i, u, &ks.ue[i])
		}
		if r.F32 {
			for i := 0; i < bn; i++ {
				e := blk + i
				residentElement(r.c32[15*NQP*e:15*NQP*(e+1)], &ks.ue[i], &ks.ye[i], &tables32, &ks.ks32)
			}
		} else {
			for i := 0; i < bn; i++ {
				e := blk + i
				residentElement64((*[15 * NQP]float64)(r.c64[15*NQP*e:]), &ks.ue[i], &ks.ye[i], &ks.ks64)
			}
		}
		for i := 0; i < bn; i++ {
			em := p.Emap[27*(blk+i) : 27*(blk+i)+27]
			yei := &ks.ye[i]
			for n := 0; n < 27; n++ {
				node := int(em[n])
				if t := int(info.sharedIdx[node]); t >= 0 {
					o := 3*t - bufOff
					buf[o] += yei[3*n]
					buf[o+1] += yei[3*n+1]
					buf[o+2] += yei[3*n+2]
				} else {
					d := 3 * node
					if !mask[d] {
						y[d] += yei[3*n]
					}
					if !mask[d+1] {
						y[d+1] += yei[3*n+1]
					}
					if !mask[d+2] {
						y[d+2] += yei[3*n+2]
					}
				}
			}
		}
	}
}

// Apply computes y = J_uu·u with symmetric Dirichlet elimination, block
// by block with an ascending-slab merge — the same partition, element
// order and merge order as the blocked smoother's per-block schedule.
func (r *Resident) Apply(u, y la.Vec) {
	par.Run(r.P.Workers, r.ApplyPart(u, y))
}

// ApplyPart is Apply as a par.Part of two phases: the blocks, one item
// each, then the merge of the shared-node list in Workers ranges with the
// Dirichlet identity rows as one more item (they write constrained rows
// only, the merge free ones only).
func (r *Resident) ApplyPart(u, y la.Vec) par.Part {
	info := r.ownership()
	p := r.P
	mask := p.BC.Mask
	ns := len(info.shared)
	nmerge := min(max(1, p.Workers), ns)
	var bufs *slabBufs
	return par.Part{
		Phases: 2,
		Prepare: func(ph int) int {
			if ph == 0 {
				bufs = p.getSlabBufs(info)
				return info.S
			}
			return nmerge + 1
		},
		Item: func(ph, i int) {
			if ph == 0 {
				ks := r.getScratch()
				r.applyBlock(i, u, y, bufs.bufs[i], ks)
				r.scratch.Put(ks)
				return
			}
			if i == nmerge {
				applyIdentityRows(p, u, y)
				return
			}
			lo, hi := par.Chunk(i, nmerge, ns)
			for t := lo; t < hi; t++ {
				var a0, a1, a2 float64
				for s := int(info.minSlab[t]); s <= int(info.maxSlab[t]); s++ {
					o := 3 * (t - int(info.bufLo[s]))
					bb := bufs.bufs[s]
					a0 += bb[o]
					a1 += bb[o+1]
					a2 += bb[o+2]
				}
				d := 3 * int(info.shared[t])
				if !mask[d] {
					y[d] = a0
				}
				if !mask[d+1] {
					y[d+1] = a1
				}
				if !mask[d+2] {
					y[d+2] = a2
				}
			}
		},
		Done: func() { p.slabPool.put(bufs) },
	}
}

// ApplyElements accumulates the action of the given element subset into y
// (which the caller must zero), mirroring TensorOp.ApplyElements: the
// building block of the rank-distributed halo apply. No Dirichlet
// identity rows are added — partial sums from different ranks must remain
// addable.
func (r *Resident) ApplyElements(elems []int, u, y la.Vec) {
	p := r.P
	ks := r.getScratch()
	for _, e := range elems {
		p.gatherVec(e, u, &ks.ue[0])
		if r.F32 {
			residentElement(r.c32[15*NQP*e:15*NQP*(e+1)], &ks.ue[0], &ks.ye[0], &tables32, &ks.ks32)
		} else {
			residentElement64((*[15 * NQP]float64)(r.c64[15*NQP*e:]), &ks.ue[0], &ks.ye[0], &ks.ks64)
		}
		p.scatterAdd(e, &ks.ye[0], y)
	}
	r.scratch.Put(ks)
}
