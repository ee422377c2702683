package krylov

import (
	"fmt"
	"math"
)

// Breakdown detection (defensive solver plumbing): variable-viscosity
// Stokes operators with extreme coefficient contrast can hand a Krylov
// method a NaN/Inf matvec (overflowed rheology), an exactly singular
// pivot (perfect plasticity), or a stagnating residual. Every method in
// this package detects those states within one iteration, stops with a
// bounded iteration count, and reports a typed *BreakdownError through
// Result.Err so callers can restart, fall back to another method, or
// abort the time step — instead of looping or returning garbage.

// BreakdownKind classifies a Krylov breakdown.
type BreakdownKind int

const (
	// BreakdownNaN: a NaN appeared in the residual or iterate.
	BreakdownNaN BreakdownKind = iota + 1
	// BreakdownInf: the residual norm overflowed to ±Inf.
	BreakdownInf
	// BreakdownZeroPivot: an exactly zero denominator (Arnoldi/Givens/CG
	// pivot or direction norm) made the recurrence undefined.
	BreakdownZeroPivot
	// BreakdownStagnation: the residual made no progress over the
	// configured stagnation window (see Params.StagnationWindow).
	BreakdownStagnation
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
	case BreakdownStagnation:
		return "stagnation"
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

// fail records a typed breakdown on the result: the legacy Breakdown
// flag, the typed error, and a telemetry counter.
func (r *Result) fail(p Params, method string, kind BreakdownKind, it int, val float64) {
	r.Breakdown = true
	if kind == BreakdownStagnation {
		r.Stagnated = true
	}
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

// stagGuard tracks residual progress over a sliding window. The zero
// value with window <= 0 is inert (stagnation detection disabled).
type stagGuard struct {
	window  int
	best    float64
	noGain  int
	started bool
}

func newStagGuard(p Params) stagGuard { return stagGuard{window: p.StagnationWindow} }

// stalled records rn and reports whether the method has gone window
// iterations without improving the best residual by at least a part in
// 1e9.
func (g *stagGuard) stalled(rn float64) bool {
	if g.window <= 0 {
		return false
	}
	if !g.started || rn < g.best*(1-1e-9) {
		g.best = rn
		g.started = true
		g.noGain = 0
		return false
	}
	g.noGain++
	return g.noGain >= g.window
}
