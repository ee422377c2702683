package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randCSR builds a random sparse matrix with ~density fraction of entries
// set, plus a guaranteed diagonal when square (needed by ILU tests).
func randCSR(rng *rand.Rand, rows, cols int, density float64, withDiag bool) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
		if withDiag && i < cols {
			b.Add(i, i, 5+rng.Float64())
		}
	}
	return b.ToCSR()
}

func csrToDense(a *CSR) *Dense {
	d := NewDense(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.Add(i, a.ColInd[k], a.Val[k])
		}
	}
	return d
}

func TestBuilderDuplicatesSum(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	a := b.ToCSR()
	if got := a.At(0, 0); got != 3 {
		t.Fatalf("duplicate sum = %v, want 3", got)
	}
	if got := a.At(1, 1); got != 5 {
		t.Fatalf("At(1,1) = %v, want 5", got)
	}
	if got := a.At(0, 1); got != 0 {
		t.Fatalf("missing entry = %v, want 0", got)
	}
}

func TestCSRRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randCSR(rng, 20, 20, 0.3, false)
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k-1] >= a.ColInd[k] {
				t.Fatalf("row %d not strictly sorted", i)
			}
		}
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randCSR(rng, rows, cols, 0.2, false)
		d := csrToDense(a)
		x := NewVec(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1, y2 := NewVec(rows), NewVec(rows)
		a.MulVec(x, y1)
		d.MulVec(x, y2)
		for i := range y1 {
			if !almostEq(y1[i], y2[i], 1e-12) {
				t.Fatalf("trial %d: CSR MulVec mismatch at %d", trial, i)
			}
		}
		// Row-ranged SpMV equals full SpMV.
		y4 := NewVec(rows)
		mid := rows / 2
		a.MulVecRange(x, y4, 0, mid)
		a.MulVecRange(x, y4, mid, rows)
		for i := range y4 {
			if !almostEq(y4[i], y1[i], 1e-12) {
				t.Fatalf("MulVecRange mismatch at %d", i)
			}
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randCSR(rng, 15, 25, 0.15, false)
	at := a.Transpose()
	if at.NRows != 25 || at.NCols != 15 {
		t.Fatalf("transpose shape %dx%d", at.NRows, at.NCols)
	}
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			if !almostEq(at.At(j, i), a.Val[k], 1e-15) {
				t.Fatalf("Aᵀ[%d,%d] != A[%d,%d]", j, i, i, j)
			}
		}
	}
	if (a.Transpose().Transpose()).NNZ() != a.NNZ() {
		t.Fatal("double transpose changed nnz")
	}
}

func TestCSRMatMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := randCSR(rng, m, k, 0.25, false)
		b := randCSR(rng, k, n, 0.25, false)
		c := MatMul(a, b)
		cd := Mul(csrToDense(a), csrToDense(b))
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(c.At(i, j), cd.At(i, j), 1e-11) {
					t.Fatalf("trial %d: C[%d,%d] = %v, want %v", trial, i, j, c.At(i, j), cd.At(i, j))
				}
			}
		}
	}
}

// TestMatMulNumericMatchesMatMul: refreshing a product's values in place
// at 1, 2, 3 and 7 workers gives MatMul's bits, after the factors' values
// changed under their fixed patterns.
func TestMatMulNumericMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := randCSR(rng, m, k, 0.2, false)
		b := randCSR(rng, k, n, 0.2, false)
		c := MatMul(a, b)
		for i := range a.Val {
			a.Val[i] = rng.NormFloat64()
		}
		for i := range b.Val {
			b.Val[i] = rng.NormFloat64()
		}
		want := MatMul(a, b)
		if !slices.Equal(c.ColInd, want.ColInd) {
			t.Fatalf("trial %d: the pattern depends on the values", trial)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			clear(c.Val)
			MatMulNumeric(a, b, c, workers)
			for p := range want.Val {
				if math.Float64bits(c.Val[p]) != math.Float64bits(want.Val[p]) {
					t.Fatalf("trial %d workers %d: value %d = %v, MatMul %v", trial, workers, p, c.Val[p], want.Val[p])
				}
			}
		}
	}
}

func TestCSRRAP(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randCSR(rng, 12, 12, 0.3, true)
	p := randCSR(rng, 12, 5, 0.4, false)
	c := RAP(a, p)
	if c.NRows != 5 || c.NCols != 5 {
		t.Fatalf("RAP shape %dx%d", c.NRows, c.NCols)
	}
	pd := csrToDense(p)
	ad := csrToDense(a)
	// Dense PᵀAP.
	ap := Mul(ad, pd)
	ptd := NewDense(5, 12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 5; j++ {
			ptd.Set(j, i, pd.At(i, j))
		}
	}
	want := Mul(ptd, ap)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if !almostEq(c.At(i, j), want.At(i, j), 1e-10) {
				t.Fatalf("RAP[%d,%d] = %v, want %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestCSRDiag(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(1, 2, 7) // no diagonal in row 1
	b.Add(2, 2, -4)
	a := b.ToCSR()
	d := NewVec(3)
	a.Diag(d)
	if d[0] != 2 || d[1] != 0 || d[2] != -4 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestCSRScaleClone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randCSR(rng, 10, 10, 0.3, true)
	orig := slices.Clone(a.Val)
	c := a.Clone()
	for k := range c.Val {
		c.Val[k] *= 2
	}
	if !slices.Equal(a.Val, orig) {
		t.Fatal("Clone shares values with its original")
	}
}

func TestExtractSubmatrix(t *testing.T) {
	b := NewBuilder(4, 4)
	// Full 4x4 with a_ij = 10*i+j+1.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			b.Add(i, j, float64(10*i+j+1))
		}
	}
	a := b.ToCSR()
	sub := ExtractSubmatrix(a, []int{1, 3})
	if sub.NRows != 2 || sub.NCols != 2 {
		t.Fatalf("submatrix shape %dx%d", sub.NRows, sub.NCols)
	}
	// sub = [[a11,a13],[a31,a33]] = [[12,14],[32,34]]
	want := [][]float64{{12, 14}, {32, 34}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if sub.At(i, j) != want[i][j] {
				t.Fatalf("sub[%d,%d] = %v, want %v", i, j, sub.At(i, j), want[i][j])
			}
		}
	}
}
