package nonlinear

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// transientNaNSystem wraps nlDiffusion with a Jacobian that returns NaN for
// its first `poisoned` applications and is healthy afterwards — the shape
// of a transient fault (corrupted coefficients that a later evaluation
// gets right).
func transientNaNSystem(n, poisoned int) (System, la.Vec) {
	sys, x0 := nlDiffusion(n)
	inner := sys.Prepare
	calls := 0
	sys.Prepare = func(x la.Vec) (krylov.Op, krylov.Preconditioner, error) {
		op, pc, err := inner(x)
		wrapped := krylov.OpFunc{Dim: n, F: func(v, y la.Vec) {
			op.Apply(v, y)
			calls++
			if calls <= poisoned {
				y[0] = math.NaN()
			}
		}}
		return wrapped, pc, err
	}
	return sys, x0
}

// TestFallbackRecoversTransientBreakdown: the first inner solve hits NaN,
// the automatic method switch retries against the healed operator and the
// outer iteration still converges.
func TestFallbackRecoversTransientBreakdown(t *testing.T) {
	sys, x := transientNaNSystem(40, 1)
	sys.Method = "fgmres"
	opt := DefaultOptions()
	res := Solve(sys, x, opt)
	if !res.Converged {
		t.Fatalf("did not converge after fallback: %+v", res)
	}
	if res.Breakdowns == 0 || res.Fallbacks == 0 {
		t.Fatalf("breakdown/fallback accounting: breakdowns=%d fallbacks=%d", res.Breakdowns, res.Fallbacks)
	}
	if res.Err != nil {
		t.Fatalf("recovered solve left Err set: %v", res.Err)
	}
}

// TestFallbackExhaustedReportsTypedError: an operator that never heals
// breaks both the primary and the fallback method; the solve must abort
// with the typed breakdown in the error chain, within bounded work.
func TestFallbackExhaustedReportsTypedError(t *testing.T) {
	sys, x := transientNaNSystem(40, 1<<30)
	sys.Method = "gcr"
	opt := DefaultOptions()
	opt.MaxIt = 5
	res := Solve(sys, x, opt)
	if res.Converged {
		t.Fatal("converged through a permanently poisoned Jacobian")
	}
	if res.Err == nil {
		t.Fatal("Err not set after fallback exhaustion")
	}
	if !errors.As(res.Err, new(*krylov.BreakdownError)) {
		t.Fatalf("error chain lacks *krylov.BreakdownError: %v", res.Err)
	}
	if res.Breakdowns == 0 || res.Fallbacks != 0 {
		t.Fatalf("accounting: breakdowns=%d fallbacks=%d", res.Breakdowns, res.Fallbacks)
	}
	if res.Iterations > 1 {
		t.Fatalf("outer iteration did not abort on double breakdown (ran %d)", res.Iterations)
	}
}

// TestInnerFailureIsNotRetried: an inner solve that fails for a reason
// other than a breakdown (the decomposition error of a rank backend, say)
// is not retried with the other method: the solve stops at its first
// attempt with the error in Result.Err's chain and no breakdown counted.
// A breakdown that arrives wrapped, as a rank backend wraps a rank's
// failure, is still retried.
func TestInnerFailureIsNotRetried(t *testing.T) {
	setupErr := errors.New("decomposition refused")
	sys, x := nlDiffusion(40)
	var methods []string
	sys.Inner = func(method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
		methods = append(methods, method)
		return krylov.Result{Err: fmt.Errorf("distributed solve: %w", setupErr)}
	}
	res := Solve(sys, x, DefaultOptions())
	if len(methods) != 1 {
		t.Fatalf("inner called %d times (%v), want once", len(methods), methods)
	}
	if !errors.Is(res.Err, setupErr) || res.Breakdowns != 0 || res.Fallbacks != 0 || res.Converged {
		t.Fatalf("Err %v, breakdowns %d, fallbacks %d, converged %v: want the inner error, no breakdown",
			res.Err, res.Breakdowns, res.Fallbacks, res.Converged)
	}

	sys, x = nlDiffusion(40)
	methods = methods[:0]
	sys.Inner = func(method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
		methods = append(methods, method)
		if len(methods) == 1 {
			bd := &krylov.BreakdownError{Method: method, Kind: krylov.BreakdownNaN}
			return krylov.Result{Err: fmt.Errorf("stokes: distributed solve, rank 1: %w", bd)}
		}
		return krylov.Solve(method, jop, pc, rhs, delta, prm)
	}
	res = Solve(sys, x, DefaultOptions())
	if len(methods) < 2 || methods[0] != "fgmres" || methods[1] != "gcr" {
		t.Fatalf("inner methods %v, want fgmres then its gcr retry", methods)
	}
	if !res.Converged || res.Err != nil || res.Breakdowns != 1 || res.Fallbacks != 1 {
		t.Fatalf("converged %v, Err %v, breakdowns %d, fallbacks %d: want one recovered breakdown",
			res.Converged, res.Err, res.Breakdowns, res.Fallbacks)
	}
}
