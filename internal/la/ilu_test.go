package la

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// csrILU0 is the CSR-form ILU(0) that ILU0 replaced, kept as its oracle:
// the factor shares the input's pattern arrays and stores L and U in one
// value array, the diagonal located through diagIdx.
type csrILU0 struct {
	n       int
	rowPtr  []int
	colInd  []int
	val     []float64 // combined L (unit diag, strictly below) and U
	diagIdx []int     // index of the diagonal entry within each row
}

func newCSRILU0(a *CSR) (*csrILU0, error) {
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("la: ILU0 requires a square matrix, got %dx%d", a.NRows, a.NCols)
	}
	n := a.NRows
	f := &csrILU0{
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

func (f *csrILU0) factor() {
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

func (f *csrILU0) SolveFrom(b, x Vec, first int) {
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

// matchCSRFormILU0 checks the factor ILU0 holds for a against the
// CSR-form oracle's bit for bit: every entry of the factor, and the solve
// of a random right-hand side from each of the first rows listed (every
// one, 0 … n, when firsts is nil), into another vector and in place.
func matchCSRFormILU0(t *testing.T, what string, f *ILU0, a *CSR, firsts []int) {
	t.Helper()
	ref, err := newCSRILU0(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := a.NRows
	bits := math.Float64bits
	e := 0
	for i := 0; i < n; i++ {
		r := n - 1 - i
		row := append(append(append([]float64(nil), f.lval[f.lptr[i]:f.lptr[i+1]]...), f.diag[i]), f.uval[f.uptr[r]:f.uptr[r+1]]...)
		for _, v := range row {
			if bits(v) != bits(ref.val[e]) {
				t.Fatalf("%s: factor entry %d (row %d) is %v, the CSR form's %v", what, e, i, v, ref.val[e])
			}
			e++
		}
	}
	if e != len(ref.val) {
		t.Fatalf("%s: %d factor entries, the CSR form has %d", what, e, len(ref.val))
	}
	rng := rand.New(rand.NewSource(int64(n)))
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if firsts == nil {
		for first := 0; first <= n; first++ {
			firsts = append(firsts, first)
		}
	}
	got, want := NewVec(n), NewVec(n)
	for _, first := range firsts {
		f.SolveFrom(b, got, first)
		ref.SolveFrom(b, want, first)
		copy(got, b)
		f.SolveFrom(got, got, first) // aliased
		copy(want, b)
		ref.SolveFrom(want, want, first)
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				t.Fatalf("%s: first=%d: row %d is %v, the CSR form gives %v", what, first, i, got[i], want[i])
			}
		}
	}
}

// nonsymmetric returns a random n×n matrix with a nonsymmetric pattern,
// a stored diagonal, and exact zeros stored on about a tenth of the
// entries — a few of them on the diagonal, so that pivots are shifted.
func nonsymmetric(rng *rand.Rand, n int) *CSR {
	a := randCSR(rng, n, n, 0.12, true)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch p := rng.Float64(); {
			case p < 0.1:
				a.Val[k] = 0
			case p < 0.12:
				a.Val[k] = 1e-31
			}
		}
	}
	return a
}

// TestILU0MatchesCSRFormBitwise: on random nonsymmetric patterns with
// exact zeros, zero and sub-1e-30 pivots (which the guard shifts), the
// sweep-ordered factor and its solves from every first row, aliased and
// not, are the CSR form's bit for bit — built new, and refactored after
// new values on the same pattern, read from a CSR and through a gather
// map.
func TestILU0MatchesCSRFormBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shifted := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(70)
		a := nonsymmetric(rng, n)
		f, err := NewILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		matchCSRFormILU0(t, fmt.Sprintf("trial %d (n=%d)", trial, n), f, a, nil)
		g, err := NewILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a.Val {
			if a.Val[k] != 0 {
				a.Val[k] = rng.NormFloat64()
			}
		}
		if err := f.Refactor(a, nil); err != nil {
			t.Fatal(err)
		}
		matchCSRFormILU0(t, fmt.Sprintf("trial %d (n=%d) refactored", trial, n), f, a, nil)
		// The same values gathered from a shuffled array through a map.
		at := make([]int32, len(a.Val))
		src := &CSR{Val: make([]float64, len(a.Val))}
		for e, k := range rng.Perm(len(a.Val)) {
			at[e], src.Val[k] = int32(k), a.Val[e]
		}
		if err := g.Refactor(src, at); err != nil {
			t.Fatal(err)
		}
		matchCSRFormILU0(t, fmt.Sprintf("trial %d (n=%d) refactored through a gather map", trial, n), g, a, nil)
		for _, d := range f.diag {
			if d == 1e-30 {
				shifted++
			}
		}
	}
	// The two-row matrix whose second pivot cancels to exactly zero.
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 1)
	a := b.ToCSR()
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	matchCSRFormILU0(t, "cancelling pivot", f, a, nil)
	if f.diag[1] != 1e-30 {
		t.Fatalf("cancelling pivot: %v, want the 1e-30 shift", f.diag[1])
	}
	if shifted == 0 {
		t.Fatal("vacuous: no random factor shifted a pivot")
	}
}

// TestILU0RefactorWrongPattern: Refactor on a matrix of another pattern or
// order, or with a gather map of the wrong length, returns an error and
// leaves the factor as it was.
func TestILU0RefactorWrongPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := nonsymmetric(rng, 40)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	// Same order and entry count, one column moved: the check must read
	// the pattern.
	moved := &CSR{NRows: 40, NCols: 40, RowPtr: a.RowPtr, ColInd: append([]int(nil), a.ColInd...), Val: a.Val}
	for i := 0; i < 40 && slices.Equal(moved.ColInd, a.ColInd); i++ {
		if last := a.RowPtr[i+1] - 1; a.ColInd[last] != i && a.ColInd[last] < 39 {
			moved.ColInd[last]++
		}
	}
	for _, bad := range []*CSR{moved, tridiag(40), tridiag(39), randCSR(rng, 40, 41, 0.1, true)} {
		if err := f.Refactor(bad, nil); err == nil {
			t.Fatalf("Refactor on a %dx%d matrix of %d entries and another pattern: no error", bad.NRows, bad.NCols, len(bad.Val))
		}
		matchCSRFormILU0(t, "after a refused Refactor", f, a, nil)
	}
	if err := f.Refactor(a, make([]int32, len(a.Val)-1)); err == nil {
		t.Fatal("Refactor with a short gather map: no error")
	}
	matchCSRFormILU0(t, "after a refused gathered Refactor", f, a, nil)
}

// tridiag builds a tridiagonal SPD matrix (1D Laplacian).
func tridiag(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.ToCSR()
}

// TestILU0ExactForTridiagonal: for a tridiagonal matrix ILU(0) is the exact
// LU factorization, so the solve must be exact.
func TestILU0ExactForTridiagonal(t *testing.T) {
	n := 50
	a := tridiag(n)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xtrue := NewVec(n)
	for i := range xtrue {
		xtrue[i] = rng.NormFloat64()
	}
	bvec := NewVec(n)
	a.MulVec(xtrue, bvec)
	x := NewVec(n)
	f.Solve(bvec, x)
	for i := range x {
		if !almostEq(x[i], xtrue[i], 1e-10) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xtrue[i])
		}
	}
}

// TestILU0Preconditions: for a general sparse diagonally dominant matrix,
// ILU(0) should reduce the residual of one Richardson step substantially.
func TestILU0Preconditions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 80
	a := randCSR(rng, n, n, 0.05, true)
	// Boost diagonal dominance.
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k] == i {
				a.Val[k] += 10
			}
		}
	}
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// One step x = M⁻¹ b; residual should be far smaller than |b|.
	x := NewVec(n)
	f.Solve(b, x)
	r := NewVec(n)
	a.MulVec(x, r)
	r.AXPY(-1, b)
	if r.Norm2() > 0.5*b.Norm2() {
		t.Fatalf("ILU0 ineffective: |r|=%v |b|=%v", r.Norm2(), b.Norm2())
	}
}

func TestILU0SolveAliased(t *testing.T) {
	a := tridiag(10)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := NewVec(10)
	b.Set(1)
	want := NewVec(10)
	f.Solve(b, want)
	f.Solve(b, b) // aliased
	for i := range b {
		if !almostEq(b[i], want[i], 1e-14) {
			t.Fatal("aliased ILU solve differs")
		}
	}
}

func TestILU0MissingDiagonal(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewILU0(b.ToCSR()); err == nil {
		t.Fatal("expected error for missing diagonal")
	}
}

func TestILU0NonSquare(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewILU0(b.ToCSR()); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

// TestILUBackSweepFromMatchesSolve: on a random SPD matrix, SolveFrom
// gives rows first..n−1 the bits Solve gives them, for first at either
// end and in the middle, and leaves the forward sweep's values (not the
// solution) in the rows it skips.
func TestILUBackSweepFromMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 120
	b := randCSR(rng, n, n, 0.06, true)
	a := MatMul(b.Transpose(), b) // SPD: BᵀB with B's diagonal ≥ 5
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := NewVec(n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	want := NewVec(n)
	f.Solve(rhs, want)
	for _, first := range []int{0, n / 2, n - 1} {
		got := NewVec(n)
		got.Set(math.NaN())
		f.SolveFrom(rhs, got, first)
		for i := first; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("first=%d: row %d is %v, Solve gives %v", first, i, got[i], want[i])
			}
		}
		skippedDiffer := false
		for i := 0; i < first; i++ {
			skippedDiffer = skippedDiffer || got[i] != want[i]
		}
		if first > 0 && !skippedDiffer {
			t.Fatalf("first=%d: the skipped rows hold the solution, so nothing was skipped", first)
		}
	}
}
