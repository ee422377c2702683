package mg

import (
	"fmt"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// Rank-distributed multigrid (paper §II-D + §III-C): every rank runs the
// same V-cycle on its own full-length vector copies, valid on the
// owned+ghost node region of its per-level Layout. Each level's smoother
// and residual evaluation go through a distributed operator whose halo
// exchange runs over the reliable channel layer, with interior-element
// compute overlapped with the in-flight boundary exchange (the paper's
// latency-hiding pattern). Restriction scatters each rank's owned fine
// nodes and owner-reduces the coarse partials; prolongation is entirely
// local (coarse ghost regions cover every read). The coarsest level is
// gathered to rank 0, solved with the shared coarse solver, and
// broadcast.
//
// DistMG is a per-rank view over a shared, read-only *MG hierarchy: the
// level problems, Chebyshev intervals, Jacobi diagonals and the coarse
// solver are built once by Build and shared across rank goroutines;
// only work vectors and exchange state are per rank.

// ValidateNestedDecomps checks that per-level decompositions nest: each
// level must use the same rank grid and element-range boundaries that
// halve exactly level to level, so owned node boxes nest and transfer
// operators never reach outside the ghost region. decomps[0] is finest.
func ValidateNestedDecomps(decomps []*comm.Decomp) error {
	for l := 1; l < len(decomps); l++ {
		f, c := decomps[l-1], decomps[l]
		if f.Px != c.Px || f.Py != c.Py || f.Pz != c.Pz {
			return fmt.Errorf("mg: level %d rank grid %dx%dx%d != level %d %dx%dx%d",
				l-1, f.Px, f.Py, f.Pz, l, c.Px, c.Py, c.Pz)
		}
		for r := 0; r < f.Size(); r++ {
			fi0, fi1, fj0, fj1, fk0, fk1 := f.ElementRange(r)
			ci0, ci1, cj0, cj1, ck0, ck1 := c.ElementRange(r)
			if fi0 != 2*ci0 || fi1 != 2*ci1 || fj0 != 2*cj0 || fj1 != 2*cj1 ||
				fk0 != 2*ck0 || fk1 != 2*ck1 {
				return fmt.Errorf("mg: rank %d element ranges do not nest between levels %d and %d "+
					"(every Px,Py,Pz must divide the per-level element counts)", r, l-1, l)
			}
		}
	}
	return nil
}

// distLevel is one rank's view of one hierarchy level.
type distLevel struct {
	dist     *comm.Dist
	op       krylov.Op // distributed operator (halo-exchanging)
	smoother *krylov.Chebyshev
	prob     *fem.Problem
	spans    []la.Span // velocity-dof windows of the rank's ext box
	r, e, bc la.Vec
}

// DistMG is one rank's distributed V-cycle preconditioner over a shared
// hierarchy. Build one per rank goroutine with NewDist; Apply has the
// krylov.Preconditioner signature, so it slots into the distributed
// field-split unchanged. Exchange failures cannot surface through
// Preconditioner.Apply, so they are recorded sticky: check Err after
// the solve.
//
// All per-level vector work is windowed to the rank's owned+ghost index
// spans: vectors are still allocated full length (index compatibility
// with the shared hierarchy), but only the rank's own pages are ever
// touched, keeping per-rank V-cycle work O(n/P) at 64–512 ranks.
type DistMG struct {
	base *MG
	lev  []*distLevel
	agg  *comm.Agg
	err  error
}

// DistOptions tunes a distributed V-cycle view.
type DistOptions struct {
	// Agg, when non-nil, agglomerates the coarsest-level solve onto the
	// block roots of the given layout (redundant subset solves) instead
	// of gathering everything to rank 0. Must be sized for the world.
	Agg *comm.Agg
}

// distOpErr records the first exchange failure (sticky).
func (m *DistMG) noteErr(err error) {
	if m.err == nil && err != nil {
		m.err = err
	}
}

// Err returns the first exchange error encountered by any level's
// operator, transfer or coarse collective (nil when all exchanges
// completed).
func (m *DistMG) Err() error { return m.err }

// ElementKernel is a matrix-free viscous operator that can apply an
// element subset: *fem.Resident on resident-backed levels, *fem.TensorOp
// on the other matrix-free ones. The distributed coupled operator of
// internal/stokes applies the fine level through the same interface.
type ElementKernel interface {
	N() int
	ApplyElements(elems []int, u, y la.Vec)
}

// haloElementOp applies the level operator matrix-free over the rank's
// elements with the overlapped owner-reduce halo exchange: boundary
// elements first, exchange started, interior elements applied while the
// partials are in flight, Dirichlet identity on owned rows after the
// reduction, owner totals broadcast back to ghosts. On a resident-backed
// level the kernel is the shared hierarchy's own fem.Resident, so every
// element apply streams the stored 15-float-per-qp tensors the blocked
// smoother of the shared solve uses; on TensorF32 levels the element
// arithmetic is float32 while the exchanged partials stay float64.
type haloElementOp struct {
	mg    *DistMG
	dist  *comm.Dist
	k     ElementKernel
	mask  []bool
	spans []la.Span
}

// N returns the velocity-dof dimension.
func (o *haloElementOp) N() int { return o.k.N() }

// Apply computes the distributed y = A·x (valid on owned+ghost rows).
func (o *haloElementOp) Apply(x, y la.Vec) {
	l := o.dist.L
	y.ZeroSpans(o.spans)
	o.k.ApplyElements(l.Boundary, x, y)
	err := o.dist.ReduceBroadcast(y,
		func() { o.k.ApplyElements(l.Interior, x, y) },
		func() { IdentityOwnedRows(l, o.mask, x, y) })
	o.mg.noteErr(err)
}

// IdentityOwnedRows applies the Dirichlet identity y[d] = x[d] on the
// constrained velocity rows of the rank's owned node box.
func IdentityOwnedRows(l *comm.Layout, mask []bool, x, y la.Vec) {
	b := l.Owned
	da := l.D.DA
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				d := 3 * (row + i)
				for c := 0; c < 3; c++ {
					if mask[d+c] {
						y[d+c] = x[d+c]
					}
				}
			}
		}
	}
}

// haloCSROp applies an assembled level operator row-distributed: each
// rank computes the CSR rows of its owned nodes (bit-identical to the
// serial SpMV row for row) and broadcasts owner values to ghosts. The
// ghost (Ext) region covers every column an owned row references, so no
// reduction is needed — one one-sided exchange per apply.
type haloCSROp struct {
	mg    *DistMG
	dist  *comm.Dist
	a     *la.CSR
	spans []la.Span
}

// N returns the row dimension.
func (o *haloCSROp) N() int { return o.a.NRows }

// Apply computes the distributed y = A·x.
func (o *haloCSROp) Apply(x, y la.Vec) {
	l := o.dist.L
	y.ZeroSpans(o.spans)
	b := l.Owned
	da := l.D.DA
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				d0 := 3 * (row + i)
				o.a.MulVecRange(x, y, d0, d0+3)
			}
		}
	}
	o.mg.noteErr(o.dist.Broadcast(y))
}

// NewDist builds rank r's distributed view of the shared hierarchy.
// dists[l] is the rank's comm handle for level l (finest first), whose
// decompositions must nest (ValidateNestedDecomps). A level applies
// what the shared level applies: the shared resident kernel element by
// element where there is one — also when the level keeps an assembled
// matrix as a Galerkin input — else the assembled matrix row-distributed
// (haloCSROp), else the tensor kernel rediscretized per rank. Smoothers
// reuse the shared Chebyshev interval and Jacobi diagonal, so all ranks —
// and the shared solve — run the identical smoother recurrence. opt
// carries the coarse-solve agglomeration (the zero value gathers to
// rank 0).
func NewDist(base *MG, dists []*comm.Dist, opt DistOptions) (*DistMG, error) {
	if len(dists) != len(base.Levels) {
		return nil, fmt.Errorf("mg: %d dist handles for %d levels", len(dists), len(base.Levels))
	}
	if opt.Agg != nil && len(dists) > 0 && opt.Agg.Size != dists[0].R.W.Size() {
		return nil, fmt.Errorf("mg: agglomeration sized for %d ranks on a %d-rank world",
			opt.Agg.Size, dists[0].R.W.Size())
	}
	m := &DistMG{base: base, agg: opt.Agg}
	for l, lev := range base.Levels {
		if lev.Prob == nil {
			return nil, fmt.Errorf("mg: level %d has no problem (algebraic level)", l)
		}
		dl := &distLevel{dist: dists[l], prob: lev.Prob, spans: dists[l].L.VelSpans()}
		if lev.Blocked != nil {
			dl.op = &haloElementOp{mg: m, dist: dists[l],
				k: lev.Blocked.R, mask: lev.Prob.BC.Mask, spans: dl.spans}
		} else if csr := lev.Op.CSR(); csr != nil {
			dl.op = &haloCSROp{mg: m, dist: dists[l], a: csr, spans: dl.spans}
		} else {
			dl.op = &haloElementOp{mg: m, dist: dists[l],
				k: fem.NewTensor(lev.Prob), mask: lev.Prob.BC.Mask, spans: dl.spans}
		}
		sm := lev.Smoother
		// The smoother's Jacobi diagonal is shared read-only; wrap it in
		// a windowed instance so the smoother's BLAS stays O(n/P) too.
		msm := sm.M
		if jac, ok := msm.(*krylov.Jacobi); ok {
			msm = &krylov.Jacobi{InvDiag: jac.InvDiag, Spans: dl.spans}
		}
		dl.smoother = &krylov.Chebyshev{A: dl.op, M: msm, Lo: sm.Lo, Hi: sm.Hi, Steps: sm.Steps, Spans: dl.spans}
		n := lev.Op.N()
		dl.r, dl.e, dl.bc = la.NewVec(n), la.NewVec(n), la.NewVec(n)
		m.lev = append(m.lev, dl)
	}
	return m, nil
}

// Apply runs the distributed V-cycle preconditioner z ≈ A⁻¹·r
// (rank-collective; all ranks must call it in lockstep).
func (m *DistMG) Apply(r, z la.Vec) {
	z.ZeroSpans(m.lev[0].spans)
	m.vcycle(0, r, z)
}

// vcycle improves x, zero on the rank's spans on entry, towards A⁻¹·b.
func (m *DistMG) vcycle(l int, b, x la.Vec) {
	dl := m.lev[l]
	if l == len(m.lev)-1 {
		m.coarsest(l, b, x)
		return
	}
	// Pre-smooth.
	dl.smoother.Smooth(b, x, true)
	// Residual and restriction.
	dl.op.Apply(x, dl.r)
	dl.r.AYPXSpans(-1, b, dl.spans)
	next := m.lev[l+1]
	m.noteErr(distRestrict(m.base.Levels[l+1].P, dl.dist.L, next.dist, dl.r, next.bc, next.spans))
	// Coarse correction.
	next.e.ZeroSpans(next.spans)
	m.vcycle(l+1, next.bc, next.e)
	distProlong(m.base.Levels[l+1].P, dl.dist.L, next.e, dl.e)
	x.AXPYSpans(1, dl.e, dl.spans)
	// Post-smooth.
	dl.smoother.Smooth(b, x, false)
}

// coarsest solves the coarsest level collectively into the zeroed x
// (every level is entered from a zero guess): without an Agg
// layout, gather the right-hand side to rank 0, apply the shared
// coarse solver there, and broadcast; with one, funnel to the block
// roots and solve redundantly on each (comm.AggGatherSolveBroadcast),
// idle clients pre-zeroing the finer level's correction buffer — the
// next write target after the coarse solve — while the roots work.
func (m *DistMG) coarsest(l int, b, x la.Vec) {
	dl := m.lev[l]
	if m.base.CoarseSolve == nil {
		dl.smoother.Smooth(b, x, true)
		return
	}
	var overlap func()
	if l > 0 {
		finer := m.lev[l-1]
		overlap = func() { finer.e.ZeroSpans(finer.spans) }
	}
	if m.agg != nil {
		m.noteErr(dl.dist.AggGatherSolveBroadcast(m.agg, b, x, func() {
			// Several block roots run the shared solver redundantly
			// and concurrently; serialize (identical answers).
			m.base.coarseMu.Lock()
			m.base.CoarseSolve.Apply(b, x)
			m.base.coarseMu.Unlock()
		}, overlap))
		return
	}
	m.noteErr(dl.dist.GatherSolveBroadcast(b, x, func() {
		m.base.CoarseSolve.Apply(b, x)
	}))
}

// distRestrict computes the rank's share of rc = Pᵀ·rf: scatter from
// the fine owned node box only (owned boxes partition the fine grid, so
// no contribution is counted twice), then owner-reduce the coarse
// partials and broadcast totals — the same halo pattern as an operator
// apply. Coarse constrained rows are zeroed on their owners before the
// return broadcast, mirroring the serial ApplyTranspose.
func distRestrict(p *Prolongation, fine *comm.Layout, coarse *comm.Dist, rf, rc la.Vec, cspans []la.Span) error {
	f, c := p.Fine, p.Coarse
	var cmask, fmask []bool
	if p.CoarseBC != nil {
		cmask = p.CoarseBC.Mask
	}
	if p.FineBC != nil {
		fmask = p.FineBC.Mask
	}
	// The coarse stencil of the fine owned box lies inside the coarse
	// ext box (nested decompositions), so windowed zeroing suffices.
	rc.ZeroSpans(cspans)
	b := fine.Owned
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		k0, k1, wk0, wk1 := stencil1D(k)
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			j0, j1, wj0, wj1 := stencil1D(j)
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				i0, i1, wi0, wi1 := stencil1D(i)
				fd := 3 * f.NodeID(i, j, k)
				var v [3]float64
				for a := 0; a < 3; a++ {
					if fmask != nil && fmask[fd+a] {
						v[a] = 0
					} else {
						v[a] = rf[fd+a]
					}
				}
				if v[0] == 0 && v[1] == 0 && v[2] == 0 {
					continue
				}
				add := func(ci, cj, ck int, w float64) {
					if w == 0 {
						return
					}
					cd := 3 * c.NodeID(ci, cj, ck)
					for a := 0; a < 3; a++ {
						rc[cd+a] += w * v[a]
					}
				}
				for _, kk := range [2]struct {
					idx int
					w   float64
				}{{k0, wk0}, {k1, wk1}} {
					if kk.idx < 0 {
						continue
					}
					for _, jj := range [2]struct {
						idx int
						w   float64
					}{{j0, wj0}, {j1, wj1}} {
						if jj.idx < 0 {
							continue
						}
						if i0 >= 0 {
							add(i0, jj.idx, kk.idx, wi0*jj.w*kk.w)
						}
						if i1 >= 0 {
							add(i1, jj.idx, kk.idx, wi1*jj.w*kk.w)
						}
					}
				}
			}
		}
	}
	fixup := func() {
		if cmask == nil {
			return
		}
		cb := coarse.L.Owned
		for k := cb.Lo[2]; k < cb.Hi[2]; k++ {
			for j := cb.Lo[1]; j < cb.Hi[1]; j++ {
				row := (k*c.NPy + j) * c.NPx
				for i := cb.Lo[0]; i < cb.Hi[0]; i++ {
					d := 3 * (row + i)
					for a := 0; a < 3; a++ {
						if cmask[d+a] {
							rc[d+a] = 0
						}
					}
				}
			}
		}
	}
	return coarse.ReduceBroadcast(rc, nil, fixup)
}

// distProlong computes uf = P·uc over the rank's extended (owned+ghost)
// fine node box. Every coarse node it reads lies inside the coarse
// extended box — nested decompositions guarantee it — so prolongation
// needs no communication at all.
func distProlong(p *Prolongation, fine *comm.Layout, uc, uf la.Vec) {
	f, c := p.Fine, p.Coarse
	var cmask, fmask []bool
	if p.CoarseBC != nil {
		cmask = p.CoarseBC.Mask
	}
	if p.FineBC != nil {
		fmask = p.FineBC.Mask
	}
	// No zeroing: the loop below assigns every node of the ext box, and
	// entries outside it are never read on the windowed path.
	b := fine.Ext
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		k0, k1, wk0, wk1 := stencil1D(k)
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			j0, j1, wj0, wj1 := stencil1D(j)
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				i0, i1, wi0, wi1 := stencil1D(i)
				fd := 3 * f.NodeID(i, j, k)
				var v [3]float64
				acc := func(ci, cj, ck int, w float64) {
					if w == 0 {
						return
					}
					cd := 3 * c.NodeID(ci, cj, ck)
					for a := 0; a < 3; a++ {
						if cmask != nil && cmask[cd+a] {
							continue
						}
						v[a] += w * uc[cd+a]
					}
				}
				for _, kk := range [2]struct {
					idx int
					w   float64
				}{{k0, wk0}, {k1, wk1}} {
					if kk.idx < 0 {
						continue
					}
					for _, jj := range [2]struct {
						idx int
						w   float64
					}{{j0, wj0}, {j1, wj1}} {
						if jj.idx < 0 {
							continue
						}
						if i0 >= 0 {
							acc(i0, jj.idx, kk.idx, wi0*jj.w*kk.w)
						}
						if i1 >= 0 {
							acc(i1, jj.idx, kk.idx, wi1*jj.w*kk.w)
						}
					}
				}
				for a := 0; a < 3; a++ {
					if fmask != nil && fmask[fd+a] {
						uf[fd+a] = 0
					} else {
						uf[fd+a] = v[a]
					}
				}
			}
		}
	}
}
