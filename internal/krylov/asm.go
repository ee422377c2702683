package krylov

import (
	"fmt"
	"math"
	"sort"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// ASM is an overlapping restricted additive Schwarz preconditioner (RAS,
// paper §V-A): the unknowns are split into contiguous base blocks
// ("subdomains"), each grown by `overlap` levels of matrix-graph
// adjacency and solved by ILU(0) (the paper's choice); corrections are
// scattered back only to the base block, matching PETSc's default and
// avoiding double counting in overlap regions.
//
// Construction, Refresh, Rebuild and Apply run the subdomains on Workers
// pool workers. Every subdomain's arithmetic is its own and the base blocks
// are disjoint, so the result is bit-identical at any worker count. Apply
// uses per-subdomain work vectors held by the instance: it is NOT safe
// for concurrent Apply calls on one ASM.
type ASM struct {
	subs    []asmSub
	opt     ASMOptions
	workers int

	// marks are the set-up's per-chunk row maps (par.ForChunk's chunk
	// index) and errs its per-subdomain results, kept for the next
	// Refresh or Rebuild. a and chunk are the set-up in flight (chunk 0:
	// a Refresh), read by body, the pool body made once, so that a set-up
	// whose storage fits allocates nothing.
	marks []*asmMarks
	errs  []error
	a     *la.CSR
	chunk int
	body  func(c, slo, shi int)
}

// asmSub is one overlapped subdomain. Its matrix is the principal
// submatrix of the global one on rows, without the entries that are
// exactly zero (they would otherwise take ILU(0) fill); only its factor is
// stored, gathered straight from the global matrix, with the positions in
// the global matrix its entries come from.
type asmSub struct {
	rows []int // global row indices, ascending
	// The base block is a contiguous global range and rows ascend, so it
	// is the contiguous local range [first, last).
	first, last int

	ilu *la.ILU0
	// at[e] is the global matrix entry (an index of its Val) of the
	// factor's e-th entry (la.ILU0.Refactor); zeros are the entries
	// of the global matrix inside the subdomain that were exactly zero
	// when the pattern was built. Together they are the whole
	// principal submatrix, so the pattern holds while every entry of at
	// is nonzero and every entry of zeros is zero.
	at, zeros []int32
	rl, zl    la.Vec
}

// asmMarks maps global rows to one subdomain at a time: row g belongs to
// the subdomain entered last iff mark[g] == stamp, at local index loc[g].
// One per worker chunk, so subdomains can be set up in parallel. rowptr
// and cols hold the local pattern of the subdomain being factored
// (la.ILU0.Reset), the chunk's scratch.
type asmMarks struct {
	mark, loc    []int
	stamp        int
	rowptr, cols []int32
}

// local returns the local index of global row g, or -1 outside the
// subdomain.
func (m *asmMarks) local(g int) int {
	if m.mark[g] != m.stamp {
		return -1
	}
	return m.loc[g]
}

// ASMOptions configures NewASM.
type ASMOptions struct {
	Subdomains int // number of base blocks
	Overlap    int // graph-adjacency overlap levels (paper uses 4)
	Workers    int // pool workers for set-up and Apply (<= 1: serial)
}

// NewASM builds the preconditioner for the CSR matrix a.
func NewASM(a *la.CSR, opt ASMOptions) (*ASM, error) {
	asm := &ASM{opt: opt, workers: max(1, opt.Workers)}
	asm.body = asm.setupChunk
	return asm, asm.Rebuild(a)
}

// Rebuild regrows the preconditioner for a, which may have another
// sparsity pattern (and order) than the matrix it was built on: every
// subdomain's rows, gather maps, work vectors and factor are re-derived
// into the storage they already have where it has the room. The result
// is bitwise NewASM of a.
func (asm *ASM) Rebuild(a *la.CSR) error {
	n := a.NRows
	if len(a.Val) > math.MaxInt32 {
		return fmt.Errorf("krylov: ASM of a matrix with %d stored entries: more than int32 indices address", len(a.Val))
	}
	nsub := min(max(1, asm.opt.Subdomains), n)
	chunk := (n + nsub - 1) / nsub
	asm.subs = la.Resized(asm.subs, (n+chunk-1)/chunk)
	return asm.setup(a, chunk)
}

// Refresh recomputes the subdomain solvers from new values of a, which
// must have the sparsity pattern the ASM was built on: row sets, base
// blocks and the subdomain ILU(0) factors are kept, and the result is
// bit-identical to NewASM on the same values.
func (asm *ASM) Refresh(a *la.CSR) error {
	return asm.setup(a, 0)
}

// setup factors every subdomain from a's values, subdomains in parallel.
// With chunk 0 (Refresh) a subdomain keeps its rows and is refactored in
// place while the set of nonzero entries has not changed
// (la.ILU0.Refactor), else gathered again on the new set; otherwise
// subdomain s is first regrown from the base block of chunk rows at
// s·chunk.
func (asm *ASM) setup(a *la.CSR, chunk int) error {
	asm.errs = la.Resized(asm.errs, len(asm.subs))
	asm.marks = la.Resized(asm.marks, asm.workers)
	asm.a, asm.chunk = a, chunk
	par.ForChunk(asm.workers, len(asm.subs), asm.body)
	asm.a = nil
	for _, err := range asm.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupChunk is setup's pool body: the subdomains [slo, shi) on the
// marks of chunk c.
func (asm *ASM) setupChunk(c, slo, shi int) {
	a, n := asm.a, asm.a.NRows
	for s := slo; s < shi; s++ {
		sub := &asm.subs[s]
		asm.errs[s] = nil
		if asm.chunk == 0 && sub.patternHolds(a) {
			asm.errs[s] = sub.ilu.Refactor(a, sub.at)
			continue
		}
		m := asm.marks[c]
		if m == nil || len(m.mark) != n {
			m = &asmMarks{mark: make([]int, n), loc: make([]int, n)}
			asm.marks[c] = m
		}
		if asm.chunk == 0 {
			m.enter(sub.rows)
		} else {
			lo := s * asm.chunk
			sub.grow(a, lo, min(lo+asm.chunk, n), asm.opt.Overlap, m)
		}
		asm.errs[s] = sub.factor(a, m)
	}
}

// enter points the marks at the subdomain with the given ascending rows.
func (m *asmMarks) enter(rows []int) {
	m.stamp++
	for l, g := range rows {
		m.mark[g], m.loc[g] = m.stamp, l
	}
}

// grow collects the base block [lo, hi) plus overlap levels of graph
// adjacency into rows, and leaves the marks on the subdomain.
func (sub *asmSub) grow(a *la.CSR, lo, hi, overlap int, m *asmMarks) {
	m.stamp++
	rows := sub.rows[:0]
	if rows == nil {
		rows = make([]int, 0, 2*(hi-lo))
	}
	for i := lo; i < hi; i++ {
		m.mark[i] = m.stamp
		rows = append(rows, i)
	}
	for lvl, first := 0, 0; lvl < overlap && first < len(rows); lvl++ {
		frontier := len(rows)
		for _, i := range rows[first:frontier] {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := a.ColInd[k]; m.mark[j] != m.stamp {
					m.mark[j] = m.stamp
					rows = append(rows, j)
				}
			}
		}
		first = frontier
	}
	sort.Ints(rows)
	sub.rows = rows
	sub.first = sort.SearchInts(rows, lo)
	sub.last = sub.first + hi - lo
	for l, g := range rows {
		m.loc[g] = l
	}
	sub.rl, sub.zl = la.Resized(sub.rl, len(rows)), la.Resized(sub.zl, len(rows))
}

// factor computes the subdomain solver from a's current values on the
// pattern of its nonzero entries, gathered from the global rows through
// the marks, which must be on the subdomain. The gather maps and the
// factor are rebuilt in their own storage.
func (sub *asmSub) factor(a *la.CSR, m *asmMarks) error {
	// Counted first, so that the maps, which live as long as the factor,
	// are sized exactly when they grow.
	nl, nnz, nzero := len(sub.rows), 0, 0
	for _, g := range sub.rows {
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			if m.local(a.ColInd[k]) >= 0 {
				if a.Val[k] != 0 {
					nnz++
				} else {
					nzero++
				}
			}
		}
	}
	sub.at, sub.zeros = la.Resized(sub.at, nnz), la.Resized(sub.zeros, nzero)
	m.rowptr, m.cols = la.Resized(m.rowptr, nl+1), la.Resized(m.cols, nnz)
	e, z := 0, 0
	m.rowptr[0] = 0
	for l, g := range sub.rows {
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			switch c := m.local(a.ColInd[k]); {
			case c < 0:
			case a.Val[k] == 0:
				sub.zeros[z] = int32(k)
				z++
			default:
				m.cols[e], sub.at[e] = int32(c), int32(k)
				e++
			}
		}
		m.rowptr[l+1] = int32(e)
	}
	if sub.ilu == nil {
		sub.ilu = new(la.ILU0)
	}
	if err := sub.ilu.Reset(m.rowptr, m.cols, a.Val, sub.at); err != nil {
		sub.ilu = nil
		return fmt.Errorf("krylov: ASM subdomain ILU(0): %w", err)
	}
	return nil
}

// patternHolds reports whether the nonzero entries of a inside the
// subdomain are still those the factor's pattern was built on.
func (sub *asmSub) patternHolds(a *la.CSR) bool {
	if sub.ilu == nil {
		return false
	}
	for _, k := range sub.at {
		if a.Val[k] == 0 {
			return false
		}
	}
	for _, k := range sub.zeros {
		if a.Val[k] != 0 {
			return false
		}
	}
	return true
}

// Apply computes z = Σ_i Rᵢᵀ·Aᵢ⁻¹·Rᵢ·r with Rᵢᵀ restricted to base block i.
func (asm *ASM) Apply(r, z la.Vec) {
	par.For(asm.workers, len(asm.subs), func(slo, shi int) {
		for s := slo; s < shi; s++ {
			sub := &asm.subs[s]
			for l, g := range sub.rows {
				sub.rl[l] = r[g]
			}
			// Only the base rows are read below: stop the back-sweep at
			// the first of them.
			sub.ilu.SolveFrom(sub.rl, sub.zl, sub.first)
			// The base blocks partition the rows: every z[g] is written,
			// by exactly one subdomain.
			for l := sub.first; l < sub.last; l++ {
				z[sub.rows[l]] = sub.zl[l]
			}
		}
	})
}
