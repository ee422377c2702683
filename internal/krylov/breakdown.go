package krylov

import (
	"fmt"
	"math"
)

// Breakdown detection (defensive solver plumbing): variable-viscosity
// Stokes operators with extreme coefficient contrast can hand a Krylov
// method a NaN/Inf matvec (overflowed rheology) or an exactly singular
// pivot (perfect plasticity). Every method in this package detects those
// states within one iteration, stops with a bounded iteration count, and
// reports a typed *BreakdownError through Result.Err — the one breakdown
// signal — so callers can restart, fall back to another method, or abort
// the time step, instead of looping or returning garbage.

// BreakdownKind classifies a Krylov breakdown.
type BreakdownKind int

const (
	// BreakdownNaN: a NaN appeared in the residual or iterate.
	BreakdownNaN BreakdownKind = iota + 1
	// BreakdownInf: the residual norm overflowed to ±Inf.
	BreakdownInf
	// BreakdownZeroPivot: a zero denominator (Arnoldi/Givens/CG pivot or
	// direction norm; for GMRES, one at rounding level) made the
	// recurrence undefined, or GMRES's Krylov space stopped growing short
	// of the tolerance.
	BreakdownZeroPivot
)

// String names the kind.
func (k BreakdownKind) String() string {
	switch k {
	case BreakdownNaN:
		return "nan"
	case BreakdownInf:
		return "inf"
	case BreakdownZeroPivot:
		return "zero-pivot"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// BreakdownError is the typed error reported through Result.Err when an
// iterative method breaks down.
type BreakdownError struct {
	Method    string        // "cg", "gmres", "fgmres", "gcr"
	Kind      BreakdownKind // what broke
	Iteration int           // iteration at which it was detected
	Value     float64       // offending value (residual norm or pivot)
}

// Error implements the error interface.
func (e *BreakdownError) Error() string {
	return fmt.Sprintf("krylov: %s breakdown (%s) at iteration %d (value %g)",
		e.Method, e.Kind, e.Iteration, e.Value)
}

// fail records a typed breakdown on the result: the typed error and a
// telemetry counter.
func (r *Result) fail(p Params, method string, kind BreakdownKind, it int, val float64) {
	r.Err = &BreakdownError{Method: method, Kind: kind, Iteration: it, Value: val}
	p.Telemetry.Counter("breakdowns").Inc()
}

// badNorm classifies a non-finite residual norm (0 if finite).
func badNorm(rn float64) BreakdownKind {
	switch {
	case math.IsNaN(rn):
		return BreakdownNaN
	case math.IsInf(rn, 0):
		return BreakdownInf
	}
	return 0
}
