package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// Rank-collective solves (paper §II-D): the Krylov methods of this
// package become distributed by swapping their one global primitive —
// the inner product — behind the Reducer interface below. With it nil
// (the default) every method runs the original shared-memory path, bit
// for bit.
//
// In a distributed solve each rank calls the same method collectively
// on its own vectors, stored packed on the owned+ghost windows of its
// layout (Reducer.Spans): b, x, the residual and the Krylov basis hold
// the window entries only, O(n/P) per rank. A vector is unpacked into a
// full-length apply buffer only to cross Op.Apply or
// Preconditioner.Apply, whose kernels index the global numbering; the
// output is packed back. Correctness rests on collective consistency:
// Reducer must return the bit-identical globally-reduced value on every
// rank (e.g. rank-ordered gather + broadcast), so all ranks take the same
// branches — Givens rotations, convergence and breakdown decisions — in
// lockstep. BLAS-1 updates then stay consistent on owned and ghost
// entries alike, and operator/preconditioner applications re-establish
// ghost validity via their own halo exchanges. A solve does no exchange
// of its own: the caller hands it b and x valid on the owned+ghost
// entries, and its first exchange is its first operator apply, as in
// PETSc's KSPSolve.

// Reducer is a rank's layout as a solve sees it. Dot must sum the rank's
// partial product over its owned dofs and return the identical reduced
// value on every rank. AXPYDot is the one-sweep Gram–Schmidt step:
// v += alpha*x, then the globally reduced inner product of the updated v
// with y, in one pass over the rank's rows and one collective; it must be
// bitwise the update followed by Dot(v, y). Spans lists the windows the
// solve packs every vector on (la.Vec.Pack), the rank's owned+ghost rows;
// nil keeps the vectors full length. Dot and AXPYDot are handed the
// vectors as the solve stores them.
type Reducer interface {
	Dot(x, y la.Vec) float64
	AXPYDot(v la.Vec, alpha float64, x, y la.Vec) float64
	Spans() []la.Span
}

// dot returns the (possibly rank-collective) inner product.
func (p Params) dot(x, y la.Vec) float64 {
	if p.Reducer != nil {
		return p.Reducer.Dot(x, y)
	}
	return x.Dot(y)
}

// norm2 returns the (possibly rank-collective) Euclidean norm.
func (p Params) norm2(x la.Vec) float64 {
	if p.Reducer != nil {
		return math.Sqrt(p.Reducer.Dot(x, x))
	}
	return x.Norm2()
}

// axpyDot computes v += alpha*x and returns the (possibly rank-collective)
// inner product of the updated v with y, in one sweep: la.Vec.AXPYDot on
// the shared-memory path, the Reducer's own sweep on a rank (its partial
// is summed in its own order, grouped by owned node), each bitwise the
// update followed by the dot.
func (p Params) axpyDot(v la.Vec, alpha float64, x, y la.Vec) float64 {
	if p.Reducer != nil {
		return p.Reducer.AXPYDot(v, alpha, x, y)
	}
	return v.AXPYDot(alpha, x, y)
}
