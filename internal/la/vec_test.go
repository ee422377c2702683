package la

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestVecAXPY(t *testing.T) {
	v := Vec{1, 2, 3}
	x := Vec{4, 5, 6}
	v.AXPY(2, x)
	want := Vec{9, 12, 15}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("AXPY[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestVecAYPX(t *testing.T) {
	v := Vec{1, 2, 3}
	x := Vec{4, 5, 6}
	v.AYPX(3, x)
	want := Vec{7, 11, 15}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("AYPX[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestVecDotNorm(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Dot(v); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := v.Norm2(); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Fatalf("NormInf = %v, want 4", got)
	}
}

func TestVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.AXPY(1, Vec{1, 2})
}

func TestVecHasNaN(t *testing.T) {
	if (Vec{1, 2, 3}).HasNaN() {
		t.Fatal("clean vector reported NaN")
	}
	if !(Vec{1, math.NaN()}).HasNaN() {
		t.Fatal("NaN not detected")
	}
	if !(Vec{math.Inf(1)}).HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestVecPointwiseMultSumSet(t *testing.T) {
	v := NewVec(3)
	v.PointwiseMultSpans(Vec{1, 2, 3}, Vec{4, 5, 6}, nil)
	if v[0] != 4 || v[1] != 10 || v[2] != 18 {
		t.Fatalf("PointwiseMultSpans over the whole vector = %v", v)
	}
	v.Set(7)
	if v[0] != 7 || v[2] != 7 {
		t.Fatalf("Set = %v", v)
	}
}

// Property: Cauchy–Schwarz |<a,b>| <= |a||b| for arbitrary vectors.
func TestVecCauchySchwarzProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		va, vb := Vec(a[:n]), Vec(b[:n])
		if va.HasNaN() || vb.HasNaN() {
			return true
		}
		lhs := math.Abs(va.Dot(vb))
		rhs := va.Norm2() * vb.Norm2()
		if math.IsNaN(lhs) || math.IsInf(lhs, 0) || math.IsNaN(rhs) || math.IsInf(rhs, 0) {
			return true // overflow in intermediate arithmetic; property vacuous
		}
		return lhs <= rhs*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AXPY is linear — (v + a*x) + b*x == v + (a+b)*x.
func TestVecAXPYLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		v := NewVec(n)
		x := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		a, b := rng.NormFloat64(), rng.NormFloat64()
		w1 := slices.Clone(v)
		w1.AXPY(a, x)
		w1.AXPY(b, x)
		w2 := slices.Clone(v)
		w2.AXPY(a+b, x)
		for i := range w1 {
			if !almostEq(w1[i], w2[i], 1e-12) {
				t.Fatalf("trial %d: AXPY not linear at %d: %v vs %v", trial, i, w1[i], w2[i])
			}
		}
	}
}
