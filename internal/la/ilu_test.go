package la

import (
	"math"
	"math/rand"
	"testing"
)

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
