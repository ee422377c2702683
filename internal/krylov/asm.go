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
// Construction, Refresh and Apply run the subdomains on Workers pool
// workers. Every subdomain's arithmetic is its own and the base blocks
// are disjoint, so the result is bit-identical at any worker count. Apply
// uses per-subdomain work vectors held by the instance: it is NOT safe
// for concurrent Apply calls on one ASM.
type ASM struct {
	subs    []asmSub
	workers int
}

// asmSub is one overlapped subdomain. Its matrix is the principal
// submatrix of the global one on rows, without the entries that are
// exactly zero (they would otherwise take ILU(0) fill); only its factor is
// stored, with the positions in the global matrix its entries come from.
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
// One per worker chunk, so subdomains can be set up in parallel.
type asmMarks struct {
	mark, loc []int
	stamp     int
}

func newASMMarks(n int) *asmMarks { return &asmMarks{mark: make([]int, n), loc: make([]int, n)} }

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
	n := a.NRows
	nsub := min(max(1, opt.Subdomains), n)
	chunk := (n + nsub - 1) / nsub
	if len(a.Val) > math.MaxInt32 {
		return nil, fmt.Errorf("krylov: ASM of a matrix with %d stored entries: more than int32 indices address", len(a.Val))
	}
	asm := &ASM{workers: max(1, opt.Workers)}
	asm.subs = make([]asmSub, (n+chunk-1)/chunk)
	return asm, asm.setup(a, func(s int, sub *asmSub, m *asmMarks) {
		lo := s * chunk
		sub.grow(a, lo, min(lo+chunk, n), opt.Overlap, m)
	})
}

// Refresh recomputes the subdomain solvers from new values of a, which
// must have the sparsity pattern the ASM was built on: row sets, base
// blocks and the subdomain ILU(0) factors are kept, and the result is
// bit-identical to NewASM on the same values.
func (asm *ASM) Refresh(a *la.CSR) error {
	return asm.setup(a, func(_ int, sub *asmSub, m *asmMarks) { m.enter(sub.rows) })
}

// setup factors every subdomain from a's values, subdomains in parallel:
// in place on its factor while the set of nonzero entries has not changed
// (la.ILU0.Refactor, which allocates nothing), else on a new pattern, for
// which enter must leave the worker's marks on the subdomain it is given.
func (asm *ASM) setup(a *la.CSR, enter func(s int, sub *asmSub, m *asmMarks)) error {
	errs := make([]error, len(asm.subs))
	par.For(asm.workers, len(asm.subs), func(slo, shi int) {
		var m *asmMarks
		for s := slo; s < shi; s++ {
			sub := &asm.subs[s]
			if sub.ilu != nil && sub.patternHolds(a) {
				errs[s] = sub.ilu.Refactor(a, sub.at)
				continue
			}
			if m == nil {
				m = newASMMarks(a.NRows)
			}
			enter(s, sub, m)
			errs[s] = sub.factor(a, m)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
	rows := make([]int, 0, 2*(hi-lo))
	for i := lo; i < hi; i++ {
		m.mark[i] = m.stamp
		rows = append(rows, i)
	}
	frontier := rows
	for lvl := 0; lvl < overlap && len(frontier) > 0; lvl++ {
		first := len(rows)
		for _, i := range frontier {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := a.ColInd[k]; m.mark[j] != m.stamp {
					m.mark[j] = m.stamp
					rows = append(rows, j)
				}
			}
		}
		frontier = rows[first:]
	}
	sort.Ints(rows)
	sub.rows = rows
	sub.first = sort.SearchInts(rows, lo)
	sub.last = sub.first + hi - lo
	for l, g := range rows {
		m.loc[g] = l
	}
	sub.rl, sub.zl = la.NewVec(len(rows)), la.NewVec(len(rows))
}

// factor computes the subdomain solver from a's current values on the
// pattern of its nonzero entries. m must be on the subdomain.
func (sub *asmSub) factor(a *la.CSR, m *asmMarks) error {
	// Counted first, so that the maps, which live as long as the factor,
	// and the matrix, which goes once it is factored, are sized exactly.
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
	mat := &la.CSR{NRows: nl, NCols: nl, RowPtr: make([]int, nl+1), ColInd: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	at, zeros := make([]int32, 0, nnz), make([]int32, 0, nzero)
	for l, g := range sub.rows {
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			switch c := m.local(a.ColInd[k]); {
			case c < 0:
			case a.Val[k] == 0:
				zeros = append(zeros, int32(k))
			default:
				mat.ColInd = append(mat.ColInd, c)
				mat.Val = append(mat.Val, a.Val[k])
				at = append(at, int32(k))
			}
		}
		mat.RowPtr[l+1] = len(mat.Val)
	}
	f, err := la.NewILU0(mat)
	if err != nil {
		return fmt.Errorf("krylov: ASM subdomain ILU(0): %w", err)
	}
	sub.ilu, sub.at, sub.zeros = f, at, zeros
	return nil
}

// patternHolds reports whether the nonzero entries of a inside the
// subdomain are still those the factor's pattern was built on.
func (sub *asmSub) patternHolds(a *la.CSR) bool {
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
