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
//
// The factor is stored the way its two sweeps read it, so that each
// streams its arrays front to back: the strictly-lower rows in ascending
// row order, the strictly-upper rows in descending row order (slot r holds
// row n−1−r), each row's entries in ascending column order, and the
// pivots in an array of their own. Indices are int32: a stored entry
// costs 12 bytes (value and column), which is what a sweep moves.
type ILU0 struct {
	n          int
	lptr, uptr []int32 // len n+1: row i of L is [lptr[i], lptr[i+1]), slot r of U [uptr[r], uptr[r+1])
	lcol, ucol []int32
	lval, uval []float64 // L (unit diagonal, not stored) and U without its diagonal
	diag       []float64 // U's diagonal: the pivots

	// w and mark are the elimination's dense work row and its column
	// flags, kept for the next Refactor.
	w    []float64
	mark []int32
}

// NewILU0 computes the ILU(0) factorization of a on its stored pattern.
// The matrix must have a stored diagonal in every row and fewer than 2³¹
// stored entries. Zero pivots are shifted to a small positive value so
// the factorization never divides by zero (standard practice for
// indefinite or nearly singular subdomain blocks). The factor keeps no
// reference to a.
func NewILU0(a *CSR) (*ILU0, error) {
	f := &ILU0{}
	if err := f.Rebuild(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Rebuild is NewILU0 of a, which may have another pattern than the
// factor, into the factor's storage where it has the room. On an error
// the factor is unusable until a Rebuild or Reset succeeds.
func (f *ILU0) Rebuild(a *CSR) error {
	if a.NRows != a.NCols {
		return fmt.Errorf("la: ILU0 requires a square matrix, got %dx%d", a.NRows, a.NCols)
	}
	if len(a.Val) > math.MaxInt32 {
		return fmt.Errorf("la: ILU0 of %d stored entries: more than int32 indices address", len(a.Val))
	}
	if err := setPattern(f, a.RowPtr, a.ColInd); err != nil {
		return err
	}
	f.load(a.Val, nil)
	f.factor()
	return nil
}

// Reset re-derives the factor on another pattern and factors it: row i
// of the pattern holds the ascending columns cols[rowptr[i]:rowptr[i+1]],
// and its e-th entry (rows ascending, columns ascending within a row)
// takes val[at[e]]. The result is bitwise NewILU0 of the matrix with that
// pattern and those values, written into the factor's storage where it
// has the room: a factor of a submatrix is rebuilt from the matrix it is
// cut from, with no copy of the submatrix. On an error (a row without its
// diagonal, a gather map of another length) the factor is unusable until
// a Reset succeeds.
func (f *ILU0) Reset(rowptr, cols []int32, val []float64, at []int32) error {
	if err := setPattern(f, rowptr, cols); err != nil {
		return err
	}
	if len(at) != f.nnz() {
		return fmt.Errorf("la: ILU0 Reset: a gather map of %d entries for a pattern of %d", len(at), f.nnz())
	}
	f.load(val, at)
	f.factor()
	return nil
}

// setPattern lays the factor's arrays out for the square pattern whose
// row i holds the ascending columns cols[rowptr[i]:rowptr[i+1]], reusing
// their storage where it has the room. It reports a row without a stored
// diagonal.
func setPattern[I int | int32](f *ILU0, rowptr, cols []I) error {
	n := len(rowptr) - 1
	f.n = n
	f.lptr, f.uptr, f.diag = Resized(f.lptr, n+1), Resized(f.uptr, n+1), Resized(f.diag, n)
	f.lptr[0], f.uptr[0] = 0, 0
	for i := 0; i < n; i++ {
		rc := cols[rowptr[i]:rowptr[i+1]]
		nlow := 0 // entries left of the diagonal
		for nlow < len(rc) && int(rc[nlow]) < i {
			nlow++
		}
		if nlow == len(rc) || int(rc[nlow]) != i {
			return fmt.Errorf("la: ILU0 row %d has no stored diagonal", i)
		}
		f.lptr[i+1] = f.lptr[i] + int32(nlow)
	}
	for r := 0; r < n; r++ {
		i := n - 1 - r
		f.uptr[r+1] = f.uptr[r] + int32(rowptr[i+1]-rowptr[i]) - (f.lptr[i+1] - f.lptr[i]) - 1
	}
	f.lcol, f.lval = Resized(f.lcol, int(f.lptr[n])), Resized(f.lval, int(f.lptr[n]))
	f.ucol, f.uval = Resized(f.ucol, int(f.uptr[n])), Resized(f.uval, int(f.uptr[n]))
	for i := 0; i < n; i++ {
		rc := cols[rowptr[i]:rowptr[i+1]]
		lcol, _ := f.lrow(i)
		ucol, _ := f.urow(i)
		for k, c := range rc[:len(lcol)] {
			lcol[k] = int32(c)
		}
		for k, c := range rc[len(lcol)+1:] {
			ucol[k] = int32(c)
		}
	}
	return nil
}

// lrow returns row i of L without its unit diagonal: columns and values.
func (f *ILU0) lrow(i int) ([]int32, []float64) {
	lo, hi := f.lptr[i], f.lptr[i+1]
	return f.lcol[lo:hi], f.lval[lo:hi]
}

// urow returns row i of U without its diagonal, which is U's slot n−1−i.
func (f *ILU0) urow(i int) ([]int32, []float64) {
	r := f.n - 1 - i
	lo, hi := f.uptr[r], f.uptr[r+1]
	return f.ucol[lo:hi], f.uval[lo:hi]
}

// nnz returns the number of entries of the pattern.
func (f *ILU0) nnz() int { return len(f.lval) + f.n + len(f.uval) }

// Refactor recomputes the factorization from new values, bit-identical to
// a new factor of them (the arithmetic is NewILU0's, entry for entry).
// With at nil, a must have the sparsity pattern the factor was built on.
// With at, the e-th entry of the factor's pattern (rows ascending, columns
// ascending within a row) takes a.Val[at[e]]: a factor of a submatrix
// refreshes from the matrix it was cut from, with no copy of the
// submatrix. On another pattern, or a gather map of another length, it
// returns an error and leaves the factor as it was.
func (f *ILU0) Refactor(a *CSR, at []int32) error {
	if at == nil {
		if err := f.checkPattern(a); err != nil {
			return err
		}
	} else if len(at) != f.nnz() {
		return fmt.Errorf("la: ILU0 Refactor: a gather map of %d entries for a pattern of %d", len(at), f.nnz())
	}
	f.load(a.Val, at)
	f.factor()
	return nil
}

// checkPattern reports an error unless a has the factor's pattern.
func (f *ILU0) checkPattern(a *CSR) error {
	n := f.n
	if a.NRows != n || a.NCols != n || len(a.RowPtr) != n+1 || len(a.Val) != f.nnz() || len(a.ColInd) != len(a.Val) {
		return fmt.Errorf("la: ILU0 Refactor of a %dx%d matrix with %d entries on a factor of order %d with %d",
			a.NRows, a.NCols, len(a.Val), n, f.nnz())
	}
	same := func(cols []int, want []int32) bool {
		for k, c := range want {
			if cols[k] != int(c) {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		cols := a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]]
		lcol, _ := f.lrow(i)
		ucol, _ := f.urow(i)
		if nl := len(lcol); len(cols) != nl+1+len(ucol) || cols[nl] != i || !same(cols, lcol) || !same(cols[nl+1:], ucol) {
			return fmt.Errorf("la: ILU0 Refactor on a different sparsity pattern (row %d)", i)
		}
	}
	return nil
}

// load writes the matrix values into the factor's arrays: the e-th entry
// of the pattern in row-major order takes val[at[e]], or val[e] when at is
// nil.
func (f *ILU0) load(val []float64, at []int32) {
	e := 0
	next := func() float64 {
		k := e
		if at != nil {
			k = int(at[e])
		}
		e++
		return val[k]
	}
	for i := 0; i < f.n; i++ {
		_, lval := f.lrow(i)
		for k := range lval {
			lval[k] = next()
		}
		f.diag[i] = next()
		_, uval := f.urow(i)
		for k := range uval {
			uval[k] = next()
		}
	}
}

// factor runs the IKJ-variant elimination restricted to the pattern, in
// place on the factor's arrays. Row i is scattered into the dense work
// row w (mark[j] == i flags the columns of its pattern), eliminated there
// column by column in ascending order with the finished rows above it, its
// pivot guarded, and gathered back: the operands and their order are
// those of the elimination on a CSR-form factor.
func (f *ILU0) factor() {
	n := f.n
	f.w, f.mark = Resized(f.w, n), Resized(f.mark, n)
	w, mark := f.w, f.mark
	for j := range mark {
		mark[j] = -1
	}
	for i := 0; i < n; i++ {
		lcol, lval := f.lrow(i)
		ucol, uval := f.urow(i)
		for k, j := range lcol {
			w[j], mark[j] = lval[k], int32(i)
		}
		w[i], mark[i] = f.diag[i], int32(i)
		for k, j := range ucol {
			w[j], mark[j] = uval[k], int32(i)
		}
		for _, j := range lcol {
			// Eliminate column j using row j's pivot.
			lij := w[j] / f.diag[j]
			w[j] = lij
			jcol, jval := f.urow(int(j))
			for kk, jj := range jcol {
				if mark[jj] == int32(i) {
					w[jj] -= lij * jval[kk]
				}
			}
		}
		// Guard the pivot.
		if math.Abs(w[i]) < 1e-30 {
			w[i] = 1e-30
		}
		for k, j := range lcol {
			lval[k] = w[j]
		}
		f.diag[i] = w[i]
		for k, j := range ucol {
			uval[k] = w[j]
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
	// Forward: L y = b (unit diagonal), two rows at a time. Row i+1
	// reads row i's result only in its last term (its columns ascend and
	// stay below i+1), so its other terms run beside row i's: two
	// subtraction chains in flight instead of one, each row's in its own
	// order. Row 0 has no terms, so an odd n starts the pairs at row 1.
	for i := n % 2; i < n; i += 2 {
		c0, v0 := f.lrow(i)
		c1, v1 := f.lrow(i + 1)
		v0, v1 = v0[:len(c0)], v1[:len(c1)]
		m := len(c1)
		last := m > 0 && c1[m-1] == int32(i)
		if last {
			m--
		}
		s0, s1 := x[i], x[i+1]
		k := 0
		for ; k < len(c0) && k < m; k++ {
			s0 -= v0[k] * x[c0[k]]
			s1 -= v1[k] * x[c1[k]]
		}
		for ; k < len(c0); k++ {
			s0 -= v0[k] * x[c0[k]]
		}
		for ; k < m; k++ {
			s1 -= v1[k] * x[c1[k]]
		}
		x[i] = s0
		if last {
			s1 -= v1[m] * s0
		}
		x[i+1] = s1
	}
	// Backward: U x = y, rows n−1 down to first, which are U's slots
	// 0 … n−1−first: the sweep reads U front to back.
	for i := n - 1; i >= first; i-- {
		cols, vals := f.urow(i)
		vals = vals[:len(cols)]
		s := x[i]
		for k, c := range cols {
			s -= vals[k] * x[c]
		}
		x[i] = s / f.diag[i]
	}
}

// ExtractSubmatrix returns the principal submatrix of a indexed by rows
// (and the same columns), as a CSR matrix in the local numbering induced
// by rows. A dense global-to-local index maps a's columns; entries of a
// whose column is outside rows are dropped. It is the reference the
// additive Schwarz subdomain factors are tested against.
func ExtractSubmatrix(a *CSR, rows []int) *CSR {
	g2l := make([]int, a.NCols)
	for g := range g2l {
		g2l[g] = -1
	}
	for l, g := range rows {
		g2l[g] = l
	}
	b := NewBuilder(len(rows), len(rows))
	for l, g := range rows {
		for k := a.RowPtr[g]; k < a.RowPtr[g+1]; k++ {
			if lj := g2l[a.ColInd[k]]; lj >= 0 {
				b.Add(l, lj, a.Val[k])
			}
		}
	}
	return b.ToCSR()
}
