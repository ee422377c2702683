package la

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSpanBLASMatchesFull: every span kernel restricted to a covering
// span set must match its full-length counterpart exactly, and a partial
// span set must leave indices outside the spans untouched.
func TestSpanBLASMatchesFull(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(3))
	mk := func() Vec {
		v := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	full := []Span{{0, n}}
	x, y, z := mk(), mk(), mk()

	check := func(name string, got, want Vec) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: index %d: got %v want %v", name, i, got[i], want[i])
			}
		}
	}

	a, b := slices.Clone(x), slices.Clone(x)
	a.AXPY(0.7, y)
	b.AXPYSpans(0.7, y, full)
	check("AXPYSpans", b, a)

	a, b = slices.Clone(x), slices.Clone(x)
	a.AYPX(-1.3, y)
	b.AYPXSpans(-1.3, y, full)
	check("AYPXSpans", b, a)

	a, b = slices.Clone(x), slices.Clone(x)
	a.Scale(0.25)
	b.ScaleSpans(0.25, full)
	check("ScaleSpans", b, a)

	a, b = slices.Clone(x), slices.Clone(x)
	a.Copy(y)
	b.CopySpans(y, full)
	check("CopySpans", b, a)

	a, b = slices.Clone(x), slices.Clone(x)
	for i := range a {
		a[i] = y[i] * z[i]
	}
	b.PointwiseMultSpans(y, z, full)
	check("PointwiseMultSpans", b, a)

	a, b = slices.Clone(x), slices.Clone(x)
	a.Zero()
	b.ZeroSpans(full)
	check("ZeroSpans", b, a)
}

// TestSpanBLASOutsideUntouched: span ops must not write outside their
// windows — the property the per-rank windowed vectors rely on.
func TestSpanBLASOutsideUntouched(t *testing.T) {
	const n = 32
	spans := []Span{{4, 8}, {12, 20}}
	inSpan := func(i int) bool {
		for _, s := range spans {
			if i >= s.Lo && i < s.Hi {
				return true
			}
		}
		return false
	}
	x, y := NewVec(n), NewVec(n)
	for i := range x {
		x[i] = float64(i + 1)
		y[i] = 2
	}
	orig := slices.Clone(x)
	x.AXPYSpans(1, y, spans)
	x.ScaleSpans(2, spans)
	x.ZeroSpans(spans[:1])
	for i := range x {
		if !inSpan(i) && x[i] != orig[i] {
			t.Fatalf("index %d outside spans modified: %v -> %v", i, orig[i], x[i])
		}
	}
	for i := spans[0].Lo; i < spans[0].Hi; i++ {
		if x[i] != 0 {
			t.Fatalf("index %d inside zeroed span: %v", i, x[i])
		}
	}
	for i := spans[1].Lo; i < spans[1].Hi; i++ {
		if want := (orig[i] + 2) * 2; x[i] != want {
			t.Fatalf("index %d inside span: got %v want %v", i, x[i], want)
		}
	}
}
