package amg

import (
	"math"
	"sort"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// buildProlongator constructs the smoothed-aggregation prolongator for one
// coarsening step:
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
//  5. smooth: P = (I - ω·D⁻¹A)·P0 with ω = OmegaScale/λmax(D⁻¹A);
//  6. optionally drop small entries (ML-style drop tolerance).
//
// It returns nil when the graph cannot be coarsened further.
func buildProlongator(a *la.CSR, bs int, nns *la.Dense, opt Options) (*la.CSR, *la.Dense, int, error) {
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
	decoupled := make([]bool, n)
	for r := 0; r < n; r++ {
		dec := true
		for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
			if a.ColInd[p] != r && a.Val[p] != 0 {
				dec = false
				break
			}
		}
		decoupled[r] = dec
	}

	// --- 1+2: strength graph over node blocks.
	diagS := make([]float64, nn)
	type edge struct {
		to int
		s  float64
	}
	adj := make([][]edge, nn)
	{
		// Accumulate block Frobenius norms row-block by row-block.
		acc := map[int]float64{}
		for bi := 0; bi < nn; bi++ {
			for key := range acc {
				delete(acc, key)
			}
			for r := bi * bs; r < (bi+1)*bs; r++ {
				if decoupled[r] {
					continue
				}
				for p := a.RowPtr[r]; p < a.RowPtr[r+1]; p++ {
					bj := a.ColInd[p] / bs
					v := a.Val[p]
					acc[bj] += v * v
				}
			}
			diagS[bi] = math.Sqrt(acc[bi])
			for bj, s2 := range acc {
				if bj != bi {
					adj[bi] = append(adj[bi], edge{to: bj, s: math.Sqrt(s2)})
				}
			}
			// Map iteration order is randomized; the greedy aggregation
			// below is order-sensitive, so sort for deterministic (and
			// hence bit-exactly restartable) coarse hierarchies.
			es := adj[bi]
			sort.Slice(es, func(x, y int) bool { return es[x].to < es[y].to })
		}
	}
	strong := make([][]edge, nn)
	for bi := 0; bi < nn; bi++ {
		for _, e := range adj[bi] {
			thr := opt.Strength * math.Sqrt(diagS[bi]*diagS[e.to])
			if e.s > thr {
				strong[bi] = append(strong[bi], e)
			}
		}
	}

	// --- 3: greedy aggregation.
	aggOf := make([]int, nn)
	for i := range aggOf {
		aggOf[i] = -1
	}
	naggs := 0
	// Phase 1: roots whose strong neighbourhood is fully unaggregated.
	for bi := 0; bi < nn; bi++ {
		if aggOf[bi] >= 0 {
			continue
		}
		free := true
		for _, e := range strong[bi] {
			if aggOf[e.to] >= 0 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		aggOf[bi] = naggs
		for _, e := range strong[bi] {
			aggOf[e.to] = naggs
		}
		naggs++
	}
	// Phase 2: attach leftovers to the most strongly connected aggregate.
	for bi := 0; bi < nn; bi++ {
		if aggOf[bi] >= 0 {
			continue
		}
		best, bestS := -1, 0.0
		for _, e := range strong[bi] {
			if aggOf[e.to] >= 0 && e.s > bestS {
				best, bestS = aggOf[e.to], e.s
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
		return nil, nil, 0, nil // no coarsening achieved
	}

	// --- 4: tentative prolongator via per-aggregate QR. Fine row i lies in
	// one aggregate ag, so its entries are the nonzero values of its row of
	// that aggregate's Q, at columns ag·k+m ascending: the CSR is written
	// row by row from the Q rows, as the triplet builder would sort it.
	members := make([][]int, naggs)
	for bi, ag := range aggOf {
		members[ag] = append(members[ag], bi)
	}
	qrow := make([]float64, n*k) // row i of its aggregate's Q
	coarseNNS := la.NewDense(naggs*k, k)
	for ag, ms := range members {
		rows := len(ms) * bs
		local := la.NewDense(rows, k)
		for li, bi := range ms {
			for c := 0; c < bs; c++ {
				for m := 0; m < k; m++ {
					local.Set(li*bs+c, m, nns.At(bi*bs+c, m))
				}
			}
		}
		q, r := la.QRThin(local)
		for li, bi := range ms {
			for c := 0; c < bs; c++ {
				for m := 0; m < k; m++ {
					qrow[(bi*bs+c)*k+m] = q.At(li*bs+c, m)
				}
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				coarseNNS.Set(ag*k+i, j, r.At(i, j))
			}
		}
	}
	nnz := 0
	for _, v := range qrow {
		if v != 0 {
			nnz++
		}
	}
	p0 := &la.CSR{NRows: n, NCols: naggs * k, RowPtr: make([]int, n+1), ColInd: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	for i := 0; i < n; i++ {
		ag := aggOf[i/bs]
		for m, v := range qrow[i*k : (i+1)*k] {
			if v != 0 {
				p0.ColInd, p0.Val = append(p0.ColInd, ag*k+m), append(p0.Val, v)
			}
		}
		p0.RowPtr[i+1] = len(p0.Val)
	}

	// --- 5: prolongator smoothing.
	diag := la.NewVec(n)
	a.Diag(diag)
	invd := la.NewVec(n)
	for i, d := range diag {
		if d != 0 {
			invd[i] = 1 / d
		}
	}
	jac := krylov.NewJacobi(diag)
	lmax := krylov.EstimateLambdaMax(krylov.CSROp{A: a}, jac, opt.EigIts)
	if lmax <= 0 {
		lmax = 1
	}
	omega := opt.OmegaScale / lmax
	dinvA := a.Clone()
	dinvA.ScaleRows(invd)
	sp0 := la.MatMul(dinvA, p0)
	p := la.AddScaled(p0, sp0, -omega)

	// --- 6: ML-style drop tolerance.
	if opt.DropTol > 0 {
		p = dropSmall(p, opt.DropTol)
	}
	return p, coarseNNS, naggs, nil
}

// dropSmall removes entries with |v| < tol·max|row| and returns the
// filtered matrix.
func dropSmall(a *la.CSR, tol float64) *la.CSR {
	b := la.NewBuilder(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		var rowMax float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if v := math.Abs(a.Val[k]); v > rowMax {
				rowMax = v
			}
		}
		thr := tol * rowMax
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if math.Abs(a.Val[k]) >= thr && a.Val[k] != 0 {
				b.Add(i, a.ColInd[k], a.Val[k])
			}
		}
	}
	return b.ToCSR()
}
