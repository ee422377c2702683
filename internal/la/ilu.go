package la

import (
	"fmt"
	"math"
)

// ILU0 holds an incomplete LU factorization with zero fill (ILU(0)) of a
// CSR matrix: L and U share the sparsity pattern of A. It provides the
// subdomain solves of the additive Schwarz preconditioner used by the
// rifting model's coarse-grid solver (paper §V-A) and the ILU-smoothed
// "SAML-ii" configuration of Table IV.
type ILU0 struct {
	n       int
	rowPtr  []int
	colInd  []int
	val     []float64 // combined L (unit diag, strictly below) and U
	diagIdx []int     // index of the diagonal entry within each row
}

// NewILU0 computes the ILU(0) factorization of a. The matrix must have a
// stored diagonal in every row. Zero pivots are shifted to a small
// positive value so the factorization never divides by zero (standard
// practice for indefinite or nearly singular subdomain blocks).
func NewILU0(a *CSR) (*ILU0, error) {
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("la: ILU0 requires a square matrix, got %dx%d", a.NRows, a.NCols)
	}
	n := a.NRows
	f := &ILU0{
		n:       n,
		rowPtr:  a.RowPtr,
		colInd:  a.ColInd,
		val:     append([]float64(nil), a.Val...),
		diagIdx: make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.diagIdx[i] = -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k] == i {
				f.diagIdx[i] = k
				break
			}
		}
		if f.diagIdx[i] < 0 {
			return nil, fmt.Errorf("la: ILU0 row %d has no stored diagonal", i)
		}
	}
	f.factor()
	return f, nil
}

// Refactor recomputes the factorization from new values of a, which must
// still have the sparsity pattern the factor was built on (the pattern
// arrays are shared, not compared). The arithmetic is NewILU0's, entry
// for entry, so the refreshed factor is bit-identical to a new one.
func (f *ILU0) Refactor(a *CSR) {
	if len(a.Val) != len(f.val) {
		panic("la: ILU0 Refactor on a different sparsity pattern")
	}
	copy(f.val, a.Val)
	f.factor()
}

// factor runs the IKJ-variant elimination restricted to the pattern, in
// place on f.val. Columns in each row are sorted, so entries with col < i
// are the L part.
func (f *ILU0) factor() {
	colpos := make([]int, f.n) // scatter: column -> position in current row, or -1
	for j := range colpos {
		colpos[j] = -1
	}
	for i := 0; i < f.n; i++ {
		lo, hi := f.rowPtr[i], f.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			colpos[f.colInd[k]] = k
		}
		for k := lo; k < hi; k++ {
			j := f.colInd[k]
			if j >= i {
				break
			}
			// Eliminate column j using row j's pivot.
			pj := f.val[f.diagIdx[j]]
			lij := f.val[k] / pj
			f.val[k] = lij
			for kk := f.diagIdx[j] + 1; kk < f.rowPtr[j+1]; kk++ {
				jj := f.colInd[kk]
				if p := colpos[jj]; p >= 0 {
					f.val[p] -= lij * f.val[kk]
				}
			}
		}
		// Guard the pivot.
		d := f.diagIdx[i]
		if math.Abs(f.val[d]) < 1e-30 {
			f.val[d] = 1e-30
		}
		for k := lo; k < hi; k++ {
			colpos[f.colInd[k]] = -1
		}
	}
}

// Solve computes x = (LU)⁻¹ b by forward and backward substitution.
// b and x may alias.
func (f *ILU0) Solve(b, x Vec) { f.SolveFrom(b, x, 0) }

// SolveFrom is Solve with the backward sweep stopped at row first. Row i
// of U·x = y reads only rows above i, so x[first:] holds exactly Solve's
// values; x[:first] is left holding the forward sweep's y, not a
// solution. Restricted Schwarz reads a contiguous block of each
// subdomain solve and discards the rows under it.
func (f *ILU0) SolveFrom(b, x Vec, first int) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("la: ILU0 Solve length mismatch")
	}
	if &b[0] != &x[0] {
		copy(x, b)
	}
	// Forward: L y = b (unit diagonal).
	for i := 0; i < n; i++ {
		s := x[i]
		for k := f.rowPtr[i]; k < f.diagIdx[i]; k++ {
			s -= f.val[k] * x[f.colInd[k]]
		}
		x[i] = s
	}
	// Backward: U x = y.
	for i := n - 1; i >= first; i-- {
		s := x[i]
		for k := f.diagIdx[i] + 1; k < f.rowPtr[i+1]; k++ {
			s -= f.val[k] * x[f.colInd[k]]
		}
		x[i] = s / f.val[f.diagIdx[i]]
	}
}

// ExtractSubmatrix returns the principal submatrix of a indexed by rows
// (and the same columns), as a CSR matrix in the local numbering induced
// by rows. globalToLocal maps global indices to local indices; entries of
// a whose column is outside rows are dropped. It is used to build the
// overlapping subdomain blocks of the additive Schwarz preconditioner.
func ExtractSubmatrix(a *CSR, rows []int) *CSR {
	g2l := make(map[int]int, len(rows))
	for l, g := range rows {
		g2l[g] = l
	}
	b := NewBuilder(len(rows), len(rows))
	for l, g := range rows {
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			if lj, ok := g2l[a.ColInd[k]]; ok {
				b.Add(l, lj, a.Val[k])
			}
		}
	}
	return b.ToCSR()
}
