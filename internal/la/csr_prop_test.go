package la

import (
	"math"
	"math/rand"
	"testing"
)

// randomCSR builds a random sparse matrix alongside its dense reference.
// Some rows are forced empty so the empty-row paths are always covered.
func randomCSR(rng *rand.Rand, nr, nc int) (*CSR, [][]float64) {
	dense := make([][]float64, nr)
	b := NewBuilder(nr, nc)
	for i := 0; i < nr; i++ {
		dense[i] = make([]float64, nc)
		if nr > 2 && rng.Float64() < 0.2 {
			continue // forced empty row
		}
		nnz := rng.Intn(nc + 1)
		for k := 0; k < nnz; k++ {
			j := rng.Intn(nc)
			v := rng.NormFloat64()
			if rng.Float64() < 0.3 {
				// Duplicate insertions must accumulate.
				b.Add(i, j, v/2)
				b.Add(i, j, v/2)
			} else {
				b.Add(i, j, v)
			}
			dense[i][j] += v
		}
	}
	return b.ToCSR(), dense
}

func denseMulVec(dense [][]float64, x Vec) Vec {
	y := NewVec(len(dense))
	for i, row := range dense {
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

func vecClose(a, b Vec, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// TestCSRPropertyAgainstDense pins MulVec and Transpose against
// a dense reference over randomized sparsity patterns, including empty
// rows, single-row/column matrices and duplicate-entry accumulation.
func TestCSRPropertyAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	shapes := [][2]int{
		{1, 1}, {1, 7}, {7, 1}, {3, 3}, {5, 9}, {9, 5}, {16, 16}, {31, 17},
	}
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		nr, nc := shapes[trial%len(shapes)][0], shapes[trial%len(shapes)][1]
		a, dense := randomCSR(rng, nr, nc)

		x := NewVec(nc)
		for i := range x {
			x[i] = rng.NormFloat64()
		}

		// MulVec == dense product.
		y := NewVec(nr)
		a.MulVec(x, y)
		want := denseMulVec(dense, x)
		if !vecClose(y, want, 1e-12) {
			t.Fatalf("trial %d (%dx%d): MulVec mismatch\n got %v\nwant %v", trial, nr, nc, y, want)
		}

		// Transpose: Aᵀ dense entries match, and Aᵀx matches the dense
		// transpose product.
		at := a.Transpose()
		if at.NRows != nc || at.NCols != nr {
			t.Fatalf("trial %d: Transpose dims %dx%d, want %dx%d", trial, at.NRows, at.NCols, nc, nr)
		}
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if got := at.At(j, i); math.Abs(got-dense[i][j]) > 1e-15*(1+math.Abs(dense[i][j])) {
					t.Fatalf("trial %d: At(%d,%d) of transpose = %v, want %v", trial, j, i, got, dense[i][j])
				}
			}
		}
		xr := NewVec(nr)
		for i := range xr {
			xr[i] = rng.NormFloat64()
		}
		yt := NewVec(nc)
		at.MulVec(xr, yt)
		wantT := NewVec(nc)
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				wantT[j] += dense[i][j] * xr[i]
			}
		}
		if !vecClose(yt, wantT, 1e-12) {
			t.Fatalf("trial %d (%dx%d): transpose MulVec mismatch", trial, nr, nc)
		}

		// Double transpose is the identity (structurally canonical form).
		att := at.Transpose()
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if got := att.At(i, j); got != at.At(j, i) {
					t.Fatalf("trial %d: double transpose changed entry (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestCSRAllEmptyRows: a matrix with no entries at all must multiply to
// zero and transpose cleanly.
func TestCSRAllEmptyRows(t *testing.T) {
	b := NewBuilder(4, 3)
	a := b.ToCSR()
	x := Vec{1, 2, 3}
	y := NewVec(4)
	a.MulVec(x, y)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %v, want 0", i, v)
		}
	}
	at := a.Transpose()
	if at.NRows != 3 || at.NCols != 4 || at.NNZ() != 0 {
		t.Fatalf("empty transpose: %dx%d nnz %d", at.NRows, at.NCols, at.NNZ())
	}
}
