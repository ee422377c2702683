// Package la provides the dense and sparse linear-algebra substrate used
// throughout ptatin3d: contiguous float64 vectors, dense matrices with an
// LU factorization, compressed sparse row (CSR) matrices with sparse
// matrix–matrix products (for Galerkin triple products), and an ILU(0)
// factorization.
//
// The package plays the role PETSc's Vec/Mat play in the original pTatin3D:
// everything higher in the stack (Krylov methods, multigrid, field-split
// preconditioners) is written against these types.
package la

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64. It is a plain slice so callers can use
// Go slicing to view sub-vectors without copies; the methods below provide
// the BLAS-1 kernels the solver stack needs.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Zero sets every entry of v to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Copy copies src into v. The lengths must match.
func (v Vec) Copy(src Vec) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("la: Copy length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Scale multiplies v by alpha in place.
func (v Vec) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// AXPY computes v += alpha*x.
func (v Vec) AXPY(alpha float64, x Vec) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("la: AXPY length mismatch %d != %d", len(v), len(x)))
	}
	for i := range v {
		v[i] += alpha * x[i]
	}
}

// AYPX computes v = alpha*v + x.
func (v Vec) AYPX(alpha float64, x Vec) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("la: AYPX length mismatch %d != %d", len(v), len(x)))
	}
	for i := range v {
		v[i] = alpha*v[i] + x[i]
	}
}

// Dot returns the inner product of v and x.
func (v Vec) Dot(x Vec) float64 {
	if len(v) != len(x) {
		panic(fmt.Sprintf("la: Dot length mismatch %d != %d", len(v), len(x)))
	}
	var s float64
	for i := range v {
		s += v[i] * x[i]
	}
	return s
}

// AXPYDot computes v += alpha*x and returns the inner product of the
// updated v with y, in one sweep: each entry of v is loaded once where
// AXPY followed by Dot loads it twice. y may alias v (the result is then
// ‖v‖²) or x. The two statements of the loop are the expressions of
// AXPYSpans and Dot, in their order, so the result is bitwise theirs —
// including on a target where the compiler contracts x + a·b into a
// fused multiply-add, since it contracts the same two expressions.
func (v Vec) AXPYDot(alpha float64, x, y Vec) float64 {
	if len(v) != len(x) || len(v) != len(y) {
		panic(fmt.Sprintf("la: AXPYDot length mismatch %d, %d, %d", len(v), len(x), len(y)))
	}
	var s float64
	for i := range v {
		v[i] += alpha * x[i]
		s += v[i] * y[i]
	}
	return s
}

// DotRange returns the inner product of v[i0:i1] with x[i0:i1] — the
// partial-sum building block of rank-distributed reductions, where each
// rank dots only the dof ranges it owns.
func (v Vec) DotRange(x Vec, i0, i1 int) float64 {
	var s float64
	for i := i0; i < i1; i++ {
		s += v[i] * x[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the maximum absolute entry of v.
func (v Vec) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Set fills v with the constant alpha.
func (v Vec) Set(alpha float64) {
	for i := range v {
		v[i] = alpha
	}
}

// HasNaN reports whether any entry of v is NaN or Inf. The benchmark
// harness checks a run's final state with it; the solvers do not scan
// vectors (a NaN or Inf entry already makes the residual norm
// non-finite).
func (v Vec) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
