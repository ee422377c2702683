// Package nonlinear implements the outer nonlinear solvers of paper
// §III-A: Picard iteration and an inexact Newton–Krylov method guarded by
// a backtracking line search, with linear-solve tolerances chosen
// adaptively by the Eisenstat–Walker criterion. The caller supplies the
// residual and a per-iteration "prepare" hook that relinearizes the
// operator and preconditioner around the current state (for Stokes: the
// Newton operator drives the Krylov matvec while the preconditioner keeps
// the Picard linearization, §III-A).
package nonlinear

import (
	"fmt"
	"math"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// System describes the nonlinear problem F(x) = 0.
type System struct {
	N int
	// Residual evaluates f = F(x).
	Residual func(x, f la.Vec)
	// Prepare relinearizes around x and returns the Jacobian operator and
	// its preconditioner. Called once per outer iteration. For a Picard
	// iteration, return the Picard operator here. An error stops the
	// solve before any inner solve of that iteration (Result.Err).
	Prepare func(x la.Vec) (krylov.Op, krylov.Preconditioner, error)
	// Method selects the inner Krylov method, "gcr" or "fgmres"
	// (krylov.Solve); any other name fails the solve through Result.Err.
	Method string
	// InnerParams bounds the inner solves (MaxIt, Restart); RTol is
	// overridden per iteration when Eisenstat–Walker is active.
	InnerParams krylov.Params
	// Inner, when non-nil, replaces the built-in krylov.Solve call for
	// the inner solve J·δ = rhs: it receives the operator/preconditioner
	// pair of the current Prepare, the requested method, and the
	// per-iteration params (RTol already holds the Eisenstat–Walker
	// forcing term). The outer loop's breakdown fallback
	// (krylov.SolveWithFallback) retries through the same hook with the
	// alternate method. This is the seam the
	// model layer uses to route inner solves to a rank-distributed
	// backend while the nonlinear iteration itself stays serial.
	Inner func(method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result
	// Work, when non-nil, lends the solve its n-vectors, so a caller that
	// solves again and again allocates them once.
	Work *Workspace
}

// Workspace holds the five n-vectors of a solve — residual, correction,
// trial state, trial residual and inner right-hand side — between
// solves. The zero value is ready to use; Solve (re)sizes it to N.
type Workspace struct {
	f, delta, xTrial, fTrial, rhs la.Vec
}

// size returns the five vectors at length n, reallocating only on a
// change of size. Solve writes each before it reads it.
func (w *Workspace) size(n int) (f, delta, xTrial, fTrial, rhs la.Vec) {
	if len(w.f) != n {
		w.f, w.delta, w.xTrial, w.fTrial, w.rhs = la.NewVec(n), la.NewVec(n), la.NewVec(n), la.NewVec(n), la.NewVec(n)
	}
	return w.f, w.delta, w.xTrial, w.fTrial, w.rhs
}

// Options controls the outer iteration.
type Options struct {
	MaxIt int
	// RTol/ATol stop on ‖F‖ ≤ max(RTol·‖F₀‖, ATol).
	RTol, ATol float64
	// EisenstatWalker enables adaptive forcing terms (choice 2 of [39]):
	// η_k = γ·(‖F_k‖/‖F_{k−1}‖)^α with safeguarding, clamped to
	// [ewEtaMin, ewEtaMax]; otherwise the fixed InnerParams.RTol is used.
	EisenstatWalker bool
	EWEta0          float64 // initial forcing term (default 0.3)
}

// DefaultOptions returns the paper-style defaults.
func DefaultOptions() Options {
	return Options{
		MaxIt: 50, RTol: 1e-8, ATol: 1e-50,
		EisenstatWalker: true, EWEta0: 0.3,
	}
}

// lineSearchMax bounds the backtracking halvings of a step.
const lineSearchMax = 8

// The Eisenstat–Walker constants of choice 2: η_k = γ·(‖F_k‖/‖F_{k−1}‖)^α,
// clamped to [ewEtaMin, ewEtaMax].
const (
	ewGamma  = 0.9
	ewAlpha  = 2
	ewEtaMax = 0.9
	ewEtaMin = 1e-6
)

// Result reports the outcome of a nonlinear solve.
type Result struct {
	Converged  bool
	Iterations int // outer (Newton/Picard) iterations
	KrylovIts  int // total inner Krylov iterations
	// KrylovBasis is the largest Krylov basis any inner solve allocated
	// (krylov.Result.BasisVectors), in n-vectors.
	KrylovBasis int
	FNorm       float64   // final residual norm
	FNorm0      float64   // initial residual norm
	History     []float64 // ‖F‖ after each outer iteration (incl. initial)
	Stagnated   bool      // line search failed to reduce ‖F‖
	// ResidualEvals counts the System.Residual calls: the initial one and
	// every line-search trial, accepted or not.
	ResidualEvals int
	Breakdowns    int // inner Krylov breakdowns encountered
	Fallbacks     int // breakdowns recovered by switching Krylov method
	// Err carries the typed inner breakdown (*krylov.BreakdownError in
	// its chain) when even the fallback method broke down and the outer
	// iteration had to abort, the error of a failed System.Prepare, or
	// names an unknown System.Method.
	Err error
}

// Solve runs the inexact Newton (or Picard — determined by what Prepare
// returns) iteration, updating x in place.
func Solve(sys System, x la.Vec, opt Options) Result {
	if err := krylov.CheckMethod(sys.Method); err != nil {
		return Result{Err: fmt.Errorf("nonlinear: inner method: %w", err)}
	}
	inner := sys.Inner
	if inner == nil {
		inner = krylov.Solve
	}
	if opt.MaxIt <= 0 {
		opt.MaxIt = 50
	}
	if opt.EWEta0 <= 0 {
		opt.EWEta0 = 0.3
	}

	work := sys.Work
	if work == nil {
		work = &Workspace{}
	}
	f, delta, xTrial, fTrial, rhs := work.size(sys.N)

	sys.Residual(x, f)
	res := Result{FNorm0: f.Norm2(), ResidualEvals: 1}
	fn := res.FNorm0
	res.History = append(res.History, fn)
	prevFn := fn
	eta := sys.InnerParams.RTol
	if eta <= 0 {
		eta = 1e-3
	}
	if opt.EisenstatWalker {
		// Eisenstat–Walker owns the forcing terms; start loose (a tight
		// first solve of a bad linearization wastes Krylov work).
		eta = opt.EWEta0
	}

	for it := 1; it <= opt.MaxIt; it++ {
		if fn <= opt.ATol || fn <= opt.RTol*res.FNorm0 {
			res.Converged = true
			break
		}
		jop, pc, err := sys.Prepare(x)
		if err != nil {
			res.Err = fmt.Errorf("nonlinear: outer iteration %d: set-up: %w", it, err)
			break
		}

		// Eisenstat–Walker forcing (choice 2), with the standard
		// safeguard η_k ≥ γ·η_{k−1}^α when the previous forcing was large.
		if opt.EisenstatWalker && it > 1 {
			etaNew := ewGamma * math.Pow(fn/prevFn, ewAlpha)
			guard := ewGamma * math.Pow(eta, ewAlpha)
			if guard > 0.1 && guard > etaNew {
				etaNew = guard
			}
			eta = clampF(etaNew, ewEtaMin, ewEtaMax)
		}

		prm := sys.InnerParams
		prm.RTol = eta
		if prm.MaxIt <= 0 {
			prm.MaxIt = 500
		}
		// Solve J δ = −F.
		rhs.Copy(f)
		rhs.Scale(-1)
		delta.Zero()
		// An inner breakdown (NaN/Inf, zero pivot) discards the poisoned
		// direction and retries once with the alternate Krylov method
		// before giving up on this outer iteration; any other inner error
		// stops the solve at once.
		kres, alt := krylov.SolveWithFallback(sys.Method, delta, func(method string) krylov.Result {
			return inner(method, jop, pc, rhs, delta, prm)
		})
		res.KrylovIts += kres.Iterations
		res.KrylovBasis = max(res.KrylovBasis, kres.BasisVectors)
		if alt == "" && kres.Err != nil {
			res.Err = fmt.Errorf("nonlinear: outer iteration %d: inner solve failed: %w", it, kres.Err)
			res.Iterations = it
			break
		}
		if alt != "" {
			res.Breakdowns++
			if kres.Err != nil {
				res.Err = fmt.Errorf("nonlinear: outer iteration %d: inner solve broke down with %q and fallback %q: %w",
					it, sys.Method, alt, kres.Err)
				res.Iterations = it
				break
			}
			res.Fallbacks++
		}

		// Backtracking line search on ‖F‖ (sufficient decrease with a
		// tiny Armijo constant, standard for Newton–Krylov).
		lambda := 1.0
		accepted := false
		for ls := 0; ls <= lineSearchMax; ls++ {
			xTrial.Copy(x)
			xTrial.AXPY(lambda, delta)
			sys.Residual(xTrial, fTrial)
			res.ResidualEvals++
			ftn := fTrial.Norm2()
			if !math.IsNaN(ftn) && ftn <= (1-1e-4*lambda)*fn {
				x.Copy(xTrial)
				f.Copy(fTrial)
				prevFn = fn
				fn = ftn
				accepted = true
				break
			}
			lambda *= 0.5
		}
		res.Iterations = it
		if !accepted {
			// One last chance: accept a tiny step if it at least does not
			// blow up; otherwise report stagnation.
			res.Stagnated = true
			res.History = append(res.History, fn)
			break
		}
		res.History = append(res.History, fn)
	}
	if fn <= opt.ATol || fn <= opt.RTol*res.FNorm0 {
		res.Converged = true
	}
	res.FNorm = fn
	return res
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
