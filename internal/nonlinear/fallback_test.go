package nonlinear

import (
	"errors"
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
