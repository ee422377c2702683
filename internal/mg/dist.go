package mg

import (
	"fmt"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
)

// Rank-distributed multigrid (paper §II-D + §III-C): every rank runs the
// one V-cycle (cycle.go) on its own full-length vector copies, valid on
// the owned+ghost node region of its per-level Layout. This file holds
// only what depends on that layout: the halo operators — boundary
// elements first, interior compute overlapped with the in-flight partial
// sums (the paper's latency-hiding pattern) — the transfers over the
// rank's node boxes, and the collective coarse solve. Restriction is the
// shared owner-computes gather over the rank's owned coarse box, whose
// fine reads the level operator's exchange has just made valid, followed
// by one owner broadcast to the coarse ghosts; prolongation is entirely
// local (coarse ghost regions cover every read). The coarsest level is
// gathered to rank 0, solved there with the shared coarse solver, and
// broadcast.
//
// DistMG is a per-rank view over a shared, read-only *MG hierarchy: the
// level problems, Chebyshev intervals, Jacobi diagonals and the coarse
// solver are built once by Build and shared across rank goroutines;
// only work vectors and exchange state are per rank. A view outlives
// the solve it was built for: after the hierarchy's Refresh, the view's
// Refresh re-reads the values that changed, and its vectors, smoothers
// and halo buffers serve the next solve on the same world shape.

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

// DistMG is one rank's distributed V-cycle preconditioner over a shared
// hierarchy: NewDist's construction of the rank's view of every level,
// the collective coarse solve, and a sticky error. Build one per rank
// goroutine; Apply has the krylov.Preconditioner signature, so it is the
// field split's viscous-block solve unchanged. Exchange failures cannot
// surface through Preconditioner.Apply, so they are recorded sticky:
// check Err after the solve.
//
// All per-level vector work is windowed to the rank's owned+ghost index
// spans, so per-rank V-cycle work is O(n/P). Storage is not: every
// vector is allocated full length on every rank (index compatibility
// with the shared hierarchy), and the windows of neighbouring ranks
// share pages, so each rank's memory is that of the whole grid.
type DistMG struct {
	cycle
	base   *MG
	coarse *comm.Dist // the coarsest level's exchange handle
	err    error
	// rank is each level's rank-specific state that Refresh re-reads
	// from the hierarchy.
	rank []rankLevel
}

// rankLevel is what a rank's view of one level copies from the shared
// level: the operator's matrix (a CSR level), the smoother's interval
// and the Jacobi diagonal it windows.
type rankLevel struct {
	csr  *haloCSROp
	cheb *krylov.Chebyshev
	jac  *krylov.Jacobi // nil when the level's smoother is not Jacobi-preconditioned
}

// noteErr records the first exchange failure (sticky).
func (m *DistMG) noteErr(err error) {
	if m.err == nil && err != nil {
		m.err = err
	}
}

// Err returns the first exchange error encountered by any level's
// operator, transfer or coarse collective (nil when all exchanges
// completed).
func (m *DistMG) Err() error { return m.err }

// haloElementOp is a matrix-free level operator on a rank: the kernel
// applied over the rank's elements with the overlapped owner-reduce halo
// exchange of comm.Dist.ApplyElements. On a resident-backed level the
// kernel is the shared hierarchy's own fem.Resident, so every element
// apply streams the stored 15-float-per-qp tensors the blocked smoother of
// the shared solve uses.
type haloElementOp struct {
	mg   *DistMG
	dist *comm.Dist
	n    int
	k    comm.ElementKernel
	mask []bool
}

// N returns the velocity-dof dimension.
func (o *haloElementOp) N() int { return o.n }

// Apply computes the distributed y = A·x (valid on owned+ghost rows).
func (o *haloElementOp) Apply(x, y la.Vec) {
	o.mg.noteErr(o.dist.ApplyElements(o.k, o.mask, x, y))
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
// what the shared level applies: the assembled matrix row-distributed
// (haloCSROp) unless the level has resident backing and keeps the matrix
// only as a Galerkin input, else its element kernel (op.ElementKernel: the
// shared resident kernel, or the tensor kernel per rank). Smoothers
// reuse the shared Chebyshev interval and Jacobi diagonal, so all ranks —
// and the shared solve — run the identical smoother recurrence.
func NewDist(base *MG, dists []*comm.Dist) (*DistMG, error) {
	if len(dists) != len(base.Levels) {
		return nil, fmt.Errorf("mg: %d dist handles for %d levels", len(dists), len(base.Levels))
	}
	m := &DistMG{base: base, coarse: dists[len(dists)-1]}
	m.coarsest = m.solveCoarsest
	for l, lev := range base.Levels {
		if lev.Prob == nil {
			return nil, fmt.Errorf("mg: level %d has no problem (algebraic level)", l)
		}
		spans := dists[l].L.VelSpans()
		v := levelView{spans: spans}
		var rl rankLevel
		if csr := lev.Op.CSR(); csr != nil && lev.Blocked == nil {
			rl.csr = &haloCSROp{mg: m, dist: dists[l], spans: spans}
			v.op = rl.csr
		} else {
			v.op = &haloElementOp{mg: m, dist: dists[l], n: lev.Op.N(), k: op.ElementKernel(lev.Op, lev.Prob), mask: lev.Prob.BC.Mask}
		}
		// The smoother's Jacobi diagonal is shared read-only; wrap it in
		// a windowed instance so the smoother's BLAS stays O(n/P) too.
		rl.cheb = &krylov.Chebyshev{A: v.op, Spans: spans}
		if _, ok := lev.Smoother.M.(*krylov.Jacobi); ok {
			rl.jac = &krylov.Jacobi{Spans: spans}
		}
		v.smoother = rl.cheb
		if l > 0 {
			v.p = rankTransfer{p: lev.P, fine: dists[l-1].L, coarse: dists[l], mg: m}
		}
		n := lev.Op.N()
		v.r, v.e, v.bc = la.NewVec(n), la.NewVec(n), la.NewVec(n)
		m.lev = append(m.lev, v)
		m.rank = append(m.rank, rl)
	}
	m.Refresh()
	return m, nil
}

// Refresh re-reads what the hierarchy's Refresh may have changed — each
// level's assembled matrix, Chebyshev interval and Jacobi diagonal — and
// clears the sticky error, readying the view for its next solve. It
// allocates nothing.
func (m *DistMG) Refresh() {
	m.err = nil
	for l, lev := range m.base.Levels {
		rl := &m.rank[l]
		if rl.csr != nil {
			rl.csr.a = lev.Op.CSR()
		}
		sm := lev.Smoother
		rl.cheb.Lo, rl.cheb.Hi, rl.cheb.Steps = sm.Lo, sm.Hi, sm.Steps
		rl.cheb.M = sm.M
		if jac, ok := sm.M.(*krylov.Jacobi); ok && rl.jac != nil {
			rl.jac.InvDiag = jac.InvDiag
			rl.cheb.M = rl.jac
		}
	}
}

// Apply runs the distributed V-cycle preconditioner z ≈ A⁻¹·r
// (rank-collective; all ranks must call it in lockstep).
func (m *DistMG) Apply(r, z la.Vec) {
	z.ZeroSpans(m.lev[0].spans)
	m.run(r, z)
}

// rankTransfer is the transfer between two levels over one rank's node
// boxes: the same stencil and the same gather as the whole grid's.
type rankTransfer struct {
	p      *Prolongation
	fine   *comm.Layout // the finer level's layout
	coarse *comm.Dist   // the coarser level's exchange handle
	mg     *DistMG
}

// Apply interpolates over the rank's fine owned+ghost box. Every coarse
// node it reads lies inside the coarse owned+ghost box — nested
// decompositions guarantee it — so prolongation needs no communication.
func (t rankTransfer) Apply(uc, uf la.Vec) { t.p.applyBox(t.fine.Ext, uc, uf) }

// ApplyTranspose gathers the rank's owned coarse nodes — for a fine
// element range [a,b) along an axis the owned coarse nodes [a+1,b] read
// the fine nodes [2a+1,2b+1], inside the fine owned+ghost range
// [2a,2b+3) — and broadcasts them to the coarse ghosts: one exchange
// phase, owned rows bitwise equal to Prolongation.ApplyTranspose.
func (t rankTransfer) ApplyTranspose(rf, rc la.Vec) {
	t.p.restrictBox(t.coarse.L.Owned, rf, rc)
	t.mg.noteErr(t.coarse.Broadcast(rc))
}

// solveCoarsest solves the coarsest level collectively into the zeroed x
// (every level is entered from a zero guess): funnel the right-hand side
// to rank 0, apply the shared coarse solver there and broadcast
// (comm.GatherSolveBroadcast), idle clients pre-zeroing the finer level's
// correction buffer — the next write target after the coarse solve —
// while rank 0 works. The solve counts in the base hierarchy's coarse
// timer.
func (m *DistMG) solveCoarsest(b, x la.Vec) {
	if m.base.CoarseSolve == nil {
		m.smoothOnly(b, x)
		return
	}
	finer := &m.lev[len(m.lev)-2] // Build wants two levels
	m.noteErr(m.coarse.GatherSolveBroadcast(b, x, func() {
		m.base.solveCoarse(b, x)
	}, func() { finer.e.ZeroSpans(finer.spans) }))
}
