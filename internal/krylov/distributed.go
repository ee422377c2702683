package krylov

import (
	"math"

	"ptatin3d/internal/la"
)

// Rank-collective solves (paper §II-D): the Krylov methods of this
// package become distributed by swapping their two global primitives —
// inner products and halo consistency — behind the Reducer/Exchanger
// interfaces below. With both nil (the default) every method runs the
// original shared-memory path, bit for bit.
//
// In a distributed solve each rank calls the same method collectively
// on its own full-length vector copy, valid on the owned+ghost entries
// of its layout. Correctness rests on collective consistency: Reducer
// must return the bit-identical globally-reduced value on every rank
// (e.g. rank-ordered gather + broadcast), so all ranks take the same
// branches — Givens rotations, convergence and breakdown decisions —
// in lockstep. BLAS-1 updates then stay consistent on owned and ghost
// entries alike, and operator/preconditioner applications re-establish
// ghost validity via their own halo exchanges.

// Reducer supplies rank-collective inner products: Dot must sum each
// rank's partial product over its owned dofs and return the identical
// reduced value on every rank.
type Reducer interface {
	Dot(x, y la.Vec) float64
}

// Exchanger refreshes the ghost entries of an externally assembled
// vector from their owners, making it halo-consistent before the first
// operator application. Solve entry points call it on the initial guess
// and right-hand side when set.
type Exchanger interface {
	Consistent(x la.Vec) error
}

// BatchReducer extends Reducer with a fused reduction: DotBatch returns
// the globally reduced inner products dot(xs[i], ys[i]) for all pairs
// using a single collective operation, so a pipelined Krylov iteration
// pays one allreduce latency instead of one per inner product. Like Dot,
// the returned values must be bit-identical on every rank.
type BatchReducer interface {
	Reducer
	DotBatch(xs, ys []la.Vec) []float64
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

// dots returns the (possibly rank-collective) inner products of the
// vector pairs (xs[i], ys[i]). With a BatchReducer all pairs reduce in
// one collective; with a plain Reducer each pair reduces separately;
// with no Reducer the serial products are returned.
func (p Params) dots(xs, ys []la.Vec) []float64 {
	if br, ok := p.Reducer.(BatchReducer); ok {
		return br.DotBatch(xs, ys)
	}
	out := make([]float64, len(xs))
	if p.Reducer != nil {
		for i := range xs {
			out[i] = p.Reducer.Dot(xs[i], ys[i])
		}
		return out
	}
	for i := range xs {
		out[i] = xs[i].Dot(ys[i])
	}
	return out
}

// spans returns the solver's BLAS-1 windows: the rank's spans on a
// distributed solve that set Params.Spans, nil — which la's span
// operations take as the whole vector — on the shared-memory path.
func (p Params) spans() []la.Span {
	if p.Reducer != nil && len(p.Spans) > 0 {
		return p.Spans
	}
	return nil
}

// The v* helpers below are the solver-internal BLAS-1 kernels over those
// windows.

func (p Params) vaxpy(v la.Vec, alpha float64, x la.Vec) { v.AXPYSpans(alpha, x, p.spans()) }

func (p Params) vaypx(v la.Vec, alpha float64, x la.Vec) { v.AYPXSpans(alpha, x, p.spans()) }

func (p Params) vcopy(dst, src la.Vec) { dst.CopySpans(src, p.spans()) }

func (p Params) vscale(v la.Vec, alpha float64) { v.ScaleSpans(alpha, p.spans()) }

func (p Params) vzero(v la.Vec) { v.ZeroSpans(p.spans()) }

// consistent makes the caller-supplied vectors halo-consistent (no-op
// without an Exchanger). The returned error is the exchange failure, to
// be surfaced through Result.Err as a breakdown.
func (p Params) consistent(vs ...la.Vec) error {
	if p.Exchanger == nil {
		return nil
	}
	for _, v := range vs {
		if err := p.Exchanger.Consistent(v); err != nil {
			return err
		}
	}
	return nil
}

// failEntry marks a solve that could not start because the entry
// exchange failed: a communication breakdown before iteration 0, with
// the exchange error carried through Result.Err as-is.
func (r *Result) failEntry(p Params, err error) {
	r.Breakdown = true
	r.Err = err
	p.Telemetry.Counter("breakdowns").Inc()
}
