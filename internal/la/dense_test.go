package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y := NewVec(2)
	m.MulVec(Vec{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestDenseMul(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewDense(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := Mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("Mul data = %v, want %v", c.Data, want)
		}
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(20)
		a := randDense(rng, n, n)
		// Diagonal boost to keep matrices well-conditioned.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		xtrue := NewVec(n)
		for i := range xtrue {
			xtrue[i] = rng.NormFloat64()
		}
		b := NewVec(n)
		a.MulVec(xtrue, b)
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d: Factor: %v", trial, err)
		}
		x := NewVec(n)
		f.Solve(b, x)
		for i := range x {
			if !almostEq(x[i], xtrue[i], 1e-9) {
				t.Fatalf("trial %d n=%d: x[%d]=%v want %v", trial, n, i, x[i], xtrue[i])
			}
		}
	}
}

func TestLUSolveAliased(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{2, 1, 1, 3})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := Vec{3, 4}
	f.Solve(b, b) // in-place
	// Solution of [2 1;1 3]x=[3;4] is x=[1;1].
	if !almostEq(b[0], 1, 1e-12) || !almostEq(b[1], 1, 1e-12) {
		t.Fatalf("aliased solve = %v, want [1 1]", b)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Factor(a); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestInvert3(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var a, inv [9]float64
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		a[0] += 3
		a[4] += 3
		a[8] += 3
		det := Invert3(&a, &inv)
		if math.Abs(det) < 1e-8 {
			continue
		}
		// a*inv should be identity.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var s float64
				for k := 0; k < 3; k++ {
					s += a[i*3+k] * inv[k*3+j]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(s, want, 1e-10) {
					t.Fatalf("trial %d: (a*inv)[%d,%d] = %v, want %v", trial, i, j, s, want)
				}
			}
		}
	}
}

// qrThin is QRThinInPlace on a copy of a.
func qrThin(a *Dense) (q, r *Dense) {
	q, r = &Dense{Rows: a.Rows, Cols: a.Cols, Data: slices.Clone(a.Data)}, NewDense(a.Cols, a.Cols)
	QRThinInPlace(q, r, make([]float64, a.Rows))
	return q, r
}

func TestQRThin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m := 6 + rng.Intn(20)
		k := 1 + rng.Intn(6)
		a := randDense(rng, m, k)
		q, r := qrThin(a)
		// Q has orthonormal columns.
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				var dot float64
				for t2 := 0; t2 < m; t2++ {
					dot += q.At(t2, i) * q.At(t2, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(dot, want, 1e-10) {
					t.Fatalf("QtQ[%d,%d] = %v, want %v", i, j, dot, want)
				}
			}
		}
		// QR reproduces A.
		qr := Mul(q, r)
		for i := range a.Data {
			if !almostEq(qr.Data[i], a.Data[i], 1e-10) {
				t.Fatalf("QR != A at %d: %v vs %v", i, qr.Data[i], a.Data[i])
			}
		}
	}
}

func TestQRThinRankDeficient(t *testing.T) {
	// Second column is a multiple of the first: R[1,1] must be zero and the
	// corresponding Q column zeroed.
	a := NewDense(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, 2*float64(i+1))
	}
	q, r := qrThin(a)
	if r.At(1, 1) != 0 {
		t.Fatalf("R[1,1] = %v, want 0 for rank-deficient input", r.At(1, 1))
	}
	for i := 0; i < 4; i++ {
		if q.At(i, 1) != 0 {
			t.Fatalf("Q[:,1] not zeroed: %v", q.At(i, 1))
		}
	}
}

// TestInvert4MatchesFactorSolve: the stack inverse is bitwise the inverse
// columns of Factor and LU.Solve on unit vectors, on random matrices (whose
// pivoting varies), on SPD mass-like blocks, and on blocks that need a row
// swap or that skip an elimination (a zero multiplier); singular blocks
// fail as Factor fails and leave the output untouched.
func TestInvert4MatchesFactorSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var cases [][16]float64
	for c := 0; c < 200; c++ {
		var a [16]float64
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		cases = append(cases, a)
		var spd [16]float64
		var psi [4]float64
		for q := 0; q < 27; q++ {
			for i := range psi {
				psi[i] = rng.Float64() - 0.5
			}
			w := rng.Float64()
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					spd[4*i+j] += w * psi[i] * psi[j]
				}
			}
		}
		cases = append(cases, spd)
	}
	cases = append(cases,
		[16]float64{0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 3},
		[16]float64{2, 0, 1, 0, 0, 3, 0, 0, 1, 0, 4, 0, 0, 0, 0, 5})
	for c, a := range cases {
		d := NewDense(4, 4)
		copy(d.Data, a[:])
		lu, err := Factor(d)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		var want [16]float64
		ei, col := make(Vec, 4), make(Vec, 4)
		for j := 0; j < 4; j++ {
			ei.Zero()
			ei[j] = 1
			lu.Solve(ei, col)
			for i := 0; i < 4; i++ {
				want[4*i+j] = col[i]
			}
		}
		var got [16]float64
		if err := Invert4(&a, &got); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d entry %d: %v, Factor+Solve %v", c, i, got[i], want[i])
			}
		}
	}
	sing := [16]float64{1, 2, 0, 0, 2, 4, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	d := NewDense(4, 4)
	copy(d.Data, sing[:])
	_, ferr := Factor(d)
	out := [16]float64{7}
	err := Invert4(&sing, &out)
	if err == nil || ferr == nil || err.Error() != ferr.Error() {
		t.Fatalf("singular block: Invert4 %v, Factor %v", err, ferr)
	}
	if out != [16]float64{7} {
		t.Fatalf("singular block: output written: %v", out)
	}
	if n := testing.AllocsPerRun(10, func() { _ = Invert4(&cases[0], &out) }); n != 0 {
		t.Fatalf("Invert4 allocates %v times", n)
	}
}
