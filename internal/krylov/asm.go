package krylov

import (
	"fmt"
	"sort"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// ASM is an overlapping additive Schwarz preconditioner (paper §V-A): the
// unknowns are split into contiguous base blocks ("subdomains"), each
// grown by `overlap` levels of matrix-graph adjacency; subdomain problems
// are solved by ILU(0) (the paper's choice) or exact LU. By default the
// restricted variant (RAS) is used — corrections are scattered back only
// to the base block — matching PETSc's default and avoiding double
// counting in overlap regions.
//
// Construction, Refresh and Apply run the subdomains on Workers pool
// workers. Every subdomain's arithmetic is its own and RAS writes disjoint
// base rows (the additive variant scatter-adds in ascending subdomain
// order after the parallel solves), so the result is bit-identical at any
// worker count. Apply uses per-subdomain work vectors held by the
// instance: it is NOT safe for concurrent Apply calls on one ASM.
type ASM struct {
	subs     []asmSub
	restrict bool
	exact    bool
	workers  int
}

// asmSub is one overlapped subdomain. Its matrix is the principal
// submatrix of the global one on rows, without the entries that are
// exactly zero (they would otherwise take ILU(0) fill).
type asmSub struct {
	rows []int // global row indices, ascending
	// The base block is a contiguous global range and rows ascend, so it
	// is the contiguous local range [first, last).
	first, last int

	mat    *la.CSR
	ilu    *la.ILU0 // Exact=false
	lu     *la.LU   // Exact=true
	rl, zl la.Vec
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
	Subdomains int  // number of base blocks
	Overlap    int  // graph-adjacency overlap levels (paper uses 4)
	Exact      bool // dense LU subdomain solves instead of ILU(0)
	Additive   bool // plain additive instead of restricted (RAS)
	Workers    int  // pool workers for set-up and Apply (<= 1: serial)
}

// NewASM builds the preconditioner for the CSR matrix a.
func NewASM(a *la.CSR, opt ASMOptions) (*ASM, error) {
	n := a.NRows
	nsub := min(max(1, opt.Subdomains), n)
	chunk := (n + nsub - 1) / nsub
	asm := &ASM{restrict: !opt.Additive, exact: opt.Exact, workers: max(1, opt.Workers)}
	asm.subs = make([]asmSub, (n+chunk-1)/chunk)
	return asm, asm.setup(a, func(s int, sub *asmSub, m *asmMarks) {
		lo := s * chunk
		sub.grow(a, lo, min(lo+chunk, n), opt.Overlap, m)
	})
}

// Refresh recomputes the subdomain solvers from new values of a, which
// must have the sparsity pattern the ASM was built on: row sets, base
// masks and the subdomain matrix and ILU(0) patterns are kept, and the
// result is bit-identical to NewASM on the same values.
func (asm *ASM) Refresh(a *la.CSR) error {
	return asm.setup(a, func(_ int, sub *asmSub, m *asmMarks) { m.enter(sub.rows) })
}

// setup factors every subdomain from a's values, subdomains in parallel;
// enter must leave the worker's marks on the subdomain it is given.
func (asm *ASM) setup(a *la.CSR, enter func(s int, sub *asmSub, m *asmMarks)) error {
	errs := make([]error, len(asm.subs))
	par.For(asm.workers, len(asm.subs), func(slo, shi int) {
		m := newASMMarks(a.NRows)
		for s := slo; s < shi; s++ {
			sub := &asm.subs[s]
			enter(s, sub, m)
			errs[s] = sub.factor(a, asm.exact, m)
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

// factor (re)computes the subdomain solver from a's current values,
// keeping the matrix and ILU(0) patterns when the set of nonzero entries
// has not changed. m must be on the subdomain.
func (sub *asmSub) factor(a *la.CSR, exact bool, m *asmMarks) error {
	nl := len(sub.rows)
	if exact {
		d := la.NewDense(nl, nl)
		for l, g := range sub.rows {
			for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
				if c := m.local(a.ColInd[k]); c >= 0 {
					d.Add(l, c, a.Val[k])
				}
			}
		}
		f, err := la.Factor(d)
		if err != nil {
			return fmt.Errorf("krylov: ASM subdomain LU: %w", err)
		}
		sub.lu = f
		return nil
	}
	if sub.load(a, m) {
		sub.ilu.Refactor(sub.mat)
		return nil
	}
	mat := &la.CSR{NRows: nl, NCols: nl, RowPtr: make([]int, nl+1)}
	for l, g := range sub.rows {
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			if c := m.local(a.ColInd[k]); c >= 0 && a.Val[k] != 0 {
				mat.ColInd = append(mat.ColInd, c)
				mat.Val = append(mat.Val, a.Val[k])
			}
		}
		mat.RowPtr[l+1] = len(mat.Val)
	}
	f, err := la.NewILU0(mat)
	if err != nil {
		return fmt.Errorf("krylov: ASM subdomain ILU(0): %w", err)
	}
	sub.mat, sub.ilu = mat, f
	return nil
}

// load copies a's current values into the subdomain matrix. It reports
// false, leaving the matrix to be rebuilt, when there is none yet or the
// nonzero entries no longer sit where its pattern has them.
func (sub *asmSub) load(a *la.CSR, m *asmMarks) bool {
	mat := sub.mat
	if mat == nil {
		return false
	}
	for l, g := range sub.rows {
		p, end := mat.RowPtr[l], mat.RowPtr[l+1]
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			c := m.local(a.ColInd[k])
			if c < 0 || a.Val[k] == 0 {
				continue
			}
			if p == end || mat.ColInd[p] != c {
				return false
			}
			mat.Val[p] = a.Val[k]
			p++
		}
		if p != end {
			return false
		}
	}
	return true
}

// Apply computes z = Σ_i Rᵢᵀ·Aᵢ⁻¹·Rᵢ·r (restricted by default).
func (asm *ASM) Apply(r, z la.Vec) {
	par.For(asm.workers, len(asm.subs), func(slo, shi int) {
		for s := slo; s < shi; s++ {
			sub := &asm.subs[s]
			for l, g := range sub.rows {
				sub.rl[l] = r[g]
			}
			switch {
			case sub.lu != nil:
				sub.lu.Solve(sub.rl, sub.zl)
			case asm.restrict:
				// Only the base rows are read below: stop the back-sweep
				// at the first of them.
				sub.ilu.SolveFrom(sub.rl, sub.zl, sub.first)
			default:
				sub.ilu.Solve(sub.rl, sub.zl)
			}
			if asm.restrict {
				// The base blocks partition the rows: every z[g] is
				// written, by exactly one subdomain.
				for l := sub.first; l < sub.last; l++ {
					z[sub.rows[l]] = sub.zl[l]
				}
			}
		}
	})
	if asm.restrict {
		return
	}
	z.Zero()
	for s := range asm.subs {
		sub := &asm.subs[s]
		for l, g := range sub.rows {
			z[g] += sub.zl[l]
		}
	}
}
