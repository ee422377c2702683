package amg

import (
	"math"
	"sort"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// setupWork is the scratch of one coarsening step: the strength graph,
// the aggregates, the per-aggregate QR, the tentative prolongator and the
// products that smooth it and form the Galerkin operator. The levels are
// coarsened one after the other, so one set serves them all; SA keeps it
// for the next Refresh, which then allocates only where a level outgrows
// it.
type setupWork struct {
	decoupled, dead []bool
	mark            []int     // per block column: the block row that touched it last; per aggregate: its next member slot
	acc             []float64 // squared entries of a block row, by block column
	touched         []int     // the block columns acc holds
	diagS           []float64
	adjPtr, adjTo   []int // the block graph, CSR-like, and its strong part
	strPtr, strTo   []int
	adjS, strS      []float64
	aggOf           []int
	memPtr, members []int // the aggregates' blocks, ascending
	qrow            []float64
	local, r        la.Dense
	qv              []float64

	p0, sp0, ap, pt, fixed la.CSR
	diag, invd, v, av, z   la.Vec
	jac                    krylov.Jacobi
}

// prolongator constructs the smoothed-aggregation prolongator for one
// coarsening step into p, and the coarse near-null space into cnns:
//
//  1. condense A into a node graph (bs dofs per node) with block Frobenius
//     norms as edge strengths;
//  2. keep edges with ‖A_ij‖ > θ·√(‖A_ii‖·‖A_jj‖) (strength threshold,
//     paper: 0.01);
//  3. greedily aggregate nodes (two-phase: root+neighbours, then attach
//     leftovers to the most strongly connected aggregate);
//  4. build the tentative prolongator from the near-null-space candidates
//     (rigid body modes on the finest level) with a per-aggregate thin QR —
//     the Q factors become P0, the R factors the coarse candidates;
//  5. smooth: P = (I - ω·D⁻¹A)·P0 with ω = omegaScale/λmax(D⁻¹A);
//  6. optionally drop small entries below dropTol·max|row| (ML-style).
//
// It reports false, leaving p as it was, when the graph cannot be
// coarsened further.
func (w *setupWork) prolongator(a *la.CSR, bs int, nns *la.Dense, dropTol float64, p *la.CSR, cnns *la.Dense) bool {
	if w.tentative(a, bs, nns, &w.p0, cnns) == 0 {
		return false
	}
	n := a.NRows

	// --- 5: prolongator smoothing.
	w.diag, w.invd = la.Resized(w.diag, n), la.Resized(w.invd, n)
	a.Diag(w.diag)
	for i, d := range w.diag {
		w.invd[i] = 0
		if d != 0 {
			w.invd[i] = 1 / d
		}
	}
	w.jac.InvDiag = la.Resized(w.jac.InvDiag, n)
	w.jac.SetDiag(w.diag)
	w.v, w.av, w.z = la.Resized(w.v, n), la.Resized(w.av, n), la.Resized(w.z, n)
	lmax := krylov.EstimateLambdaMaxIn(krylov.CSROp{A: a}, &w.jac, eigIts, w.v, w.av, w.z)
	omega := omegaScale / lmax
	la.ScaledMatMulInto(&w.sp0, w.invd, a, &w.p0)
	la.AddScaledInto(p, &w.p0, &w.sp0, -omega)

	// --- 6: ML-style drop tolerance.
	if dropTol > 0 {
		dropSmall(p, dropTol)
	}
	return true
}

// tentative runs steps 1–4 of prolongator: the tentative prolongator P0
// into p0, the coarse near-null-space candidates into cnns, and the
// aggregate count, or 0 when aggregation leaves every node on its own.
func (w *setupWork) tentative(a *la.CSR, bs int, nns *la.Dense, p0 *la.CSR, cnns *la.Dense) int {
	n := a.NRows
	if bs < 1 || n%bs != 0 {
		bs = 1
	}
	nn := n / bs
	k := nns.Cols

	// Detect decoupled rows (Dirichlet identity rows on the fine level,
	// dead-dof identities inserted by fixZeroDiag on coarse levels): all
	// off-diagonal entries zero. Their diagonals live on an arbitrary
	// scale (1.0) unrelated to the PDE coefficients, so including them in
	// the block Frobenius norms poisons the strength-of-connection test —
	// with a low ambient viscosity every boundary block would look
	// strongly diagonally dominant, the graph would fragment into
	// singleton aggregates, and coarsening would stall (operator
	// complexity blow-up). They are therefore excluded from the strength
	// computation entirely.
	w.decoupled = la.Resized(w.decoupled, n)
	for r := 0; r < n; r++ {
		dec := true
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			if a.ColInd[p] != r && a.Val[p] != 0 {
				dec = false
				break
			}
		}
		w.decoupled[r] = dec
	}

	// --- 1+2: strength graph over node blocks. A block row's squared
	// entries are summed per block column in visit order, and its edges
	// listed by ascending block column: the greedy aggregation below is
	// order-sensitive, and a fixed order keeps the coarse hierarchies
	// deterministic (and hence bit-exactly restartable).
	w.diagS, w.acc, w.mark = la.Resized(w.diagS, nn), la.Resized(w.acc, nn), la.Resized(w.mark, nn)
	for i := range w.mark {
		w.mark[i] = -1
	}
	w.adjPtr, w.adjTo, w.adjS = la.Resized(w.adjPtr, nn+1), w.adjTo[:0], w.adjS[:0]
	for bi := 0; bi < nn; bi++ {
		w.touched = w.touched[:0]
		for r := bi * bs; r < (bi+1)*bs; r++ {
			if w.decoupled[r] {
				continue
			}
			for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
				bj := a.ColInd[p] / bs
				if w.mark[bj] != bi {
					w.mark[bj], w.acc[bj] = bi, 0
					w.touched = append(w.touched, bj)
				}
				v := a.Val[p]
				w.acc[bj] += v * v
			}
		}
		w.diagS[bi] = 0
		if w.mark[bi] == bi {
			w.diagS[bi] = math.Sqrt(w.acc[bi])
		}
		sort.Ints(w.touched)
		w.adjPtr[bi] = len(w.adjTo)
		for _, bj := range w.touched {
			if bj != bi {
				w.adjTo, w.adjS = append(w.adjTo, bj), append(w.adjS, math.Sqrt(w.acc[bj]))
			}
		}
	}
	w.adjPtr[nn] = len(w.adjTo)
	w.strPtr, w.strTo, w.strS = la.Resized(w.strPtr, nn+1), w.strTo[:0], w.strS[:0]
	for bi := 0; bi < nn; bi++ {
		w.strPtr[bi] = len(w.strTo)
		for e := w.adjPtr[bi]; e < w.adjPtr[bi+1]; e++ {
			thr := strength * math.Sqrt(w.diagS[bi]*w.diagS[w.adjTo[e]])
			if w.adjS[e] > thr {
				w.strTo, w.strS = append(w.strTo, w.adjTo[e]), append(w.strS, w.adjS[e])
			}
		}
	}
	w.strPtr[nn] = len(w.strTo)
	strong := func(bi int) ([]int, []float64) {
		lo, hi := w.strPtr[bi], w.strPtr[bi+1]
		return w.strTo[lo:hi], w.strS[lo:hi]
	}

	// --- 3: greedy aggregation.
	w.aggOf = la.Resized(w.aggOf, nn)
	aggOf := w.aggOf
	for i := range aggOf {
		aggOf[i] = -1
	}
	naggs := 0
	// Phase 1: roots whose strong neighbourhood is fully unaggregated.
	for bi := 0; bi < nn; bi++ {
		if aggOf[bi] >= 0 {
			continue
		}
		to, _ := strong(bi)
		free := true
		for _, bj := range to {
			if aggOf[bj] >= 0 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		aggOf[bi] = naggs
		for _, bj := range to {
			aggOf[bj] = naggs
		}
		naggs++
	}
	// Phase 2: attach leftovers to the most strongly connected aggregate.
	for bi := 0; bi < nn; bi++ {
		if aggOf[bi] >= 0 {
			continue
		}
		best, bestS := -1, 0.0
		to, st := strong(bi)
		for e, bj := range to {
			if aggOf[bj] >= 0 && st[e] > bestS {
				best, bestS = aggOf[bj], st[e]
			}
		}
		if best >= 0 {
			aggOf[bi] = best
		} else {
			aggOf[bi] = naggs // isolated singleton
			naggs++
		}
	}
	if naggs >= nn {
		return 0 // no coarsening achieved
	}

	// --- 4: tentative prolongator via per-aggregate QR. Fine row i lies in
	// one aggregate ag, so its entries are the nonzero values of its row of
	// that aggregate's Q, at columns ag·k+m ascending: the CSR is written
	// row by row from the Q rows, as the triplet builder would sort it.
	w.memPtr, w.members = la.Resized(w.memPtr, naggs+1), la.Resized(w.members, nn)
	clear(w.memPtr)
	for _, ag := range aggOf {
		w.memPtr[ag+1]++
	}
	for ag := 0; ag < naggs; ag++ {
		w.memPtr[ag+1] += w.memPtr[ag]
	}
	next := w.mark[:naggs] // naggs < nn
	copy(next, w.memPtr[:naggs])
	for bi, ag := range aggOf {
		w.members[next[ag]] = bi
		next[ag]++
	}
	w.qrow = la.Resized(w.qrow, n*k) // row i of its aggregate's Q
	cnns.Rows, cnns.Cols = naggs*k, k
	cnns.Data = la.Resized(cnns.Data, naggs*k*k)
	q, r := &w.local, &w.r
	r.Rows, r.Cols, r.Data = k, k, la.Resized(r.Data, k*k)
	for ag := 0; ag < naggs; ag++ {
		ms := w.members[w.memPtr[ag]:w.memPtr[ag+1]]
		rows := len(ms) * bs
		q.Rows, q.Cols, q.Data = rows, k, la.Resized(q.Data, rows*k)
		for li, bi := range ms {
			for c := 0; c < bs; c++ {
				for m := 0; m < k; m++ {
					q.Set(li*bs+c, m, nns.At(bi*bs+c, m))
				}
			}
		}
		w.qv = la.Resized(w.qv, rows)
		la.QRThinInPlace(q, r, w.qv)
		for li, bi := range ms {
			for c := 0; c < bs; c++ {
				for m := 0; m < k; m++ {
					w.qrow[(bi*bs+c)*k+m] = q.At(li*bs+c, m)
				}
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				cnns.Set(ag*k+i, j, r.At(i, j))
			}
		}
	}
	nnz := 0
	for _, v := range w.qrow {
		if v != 0 {
			nnz++
		}
	}
	p0.NRows, p0.NCols = n, naggs*k
	p0.RowPtr, p0.ColInd, p0.Val = la.Resized(p0.RowPtr, n+1), la.Resized(p0.ColInd, nnz), la.Resized(p0.Val, nnz)
	p0.RowPtr[0] = 0
	e := 0
	for i := 0; i < n; i++ {
		ag := aggOf[i/bs]
		for m, v := range w.qrow[i*k : (i+1)*k] {
			if v != 0 {
				p0.ColInd[e], p0.Val[e] = ag*k+m, v
				e++
			}
		}
		p0.RowPtr[i+1] = e
	}
	return naggs
}

// dropSmall removes the entries of a with |v| < tol·max|row| (and the
// exact zeros) in place: the kept entries keep their order.
func dropSmall(a *la.CSR, tol float64) {
	lo, e := 0, 0
	for i := 0; i < a.NRows; i++ {
		hi := a.RowPtr[i+1]
		var rowMax float64
		for k := lo; k < hi; k++ {
			if v := math.Abs(a.Val[k]); v > rowMax {
				rowMax = v
			}
		}
		thr := tol * rowMax
		for k := lo; k < hi; k++ {
			if math.Abs(a.Val[k]) >= thr && a.Val[k] != 0 {
				a.ColInd[e], a.Val[e] = a.ColInd[k], a.Val[k]
				e++
			}
		}
		a.RowPtr[i+1] = e
		lo = hi
	}
	a.ColInd, a.Val = a.ColInd[:e], a.Val[:e]
}
