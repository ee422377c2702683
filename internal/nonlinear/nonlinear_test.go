package nonlinear

import (
	"math"
	"slices"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// nlDiffusion builds the nonlinear test problem
// F_i(x) = (A x)_i + tanh(x_i) − b_i with A the 1-D Laplacian: smooth,
// bounded nonlinearity with Jacobian J = A + diag(sech²(x)).
func nlDiffusion(n int) (System, la.Vec) {
	b := la.NewVec(n)
	for i := range b {
		b[i] = 1 + 0.5*math.Sin(float64(i))
	}
	lap := func(x, y la.Vec) {
		for i := range x {
			s := 2 * x[i]
			if i > 0 {
				s -= x[i-1]
			}
			if i < n-1 {
				s -= x[i+1]
			}
			y[i] = s
		}
	}
	sys := System{
		N: n,
		Residual: func(x, f la.Vec) {
			lap(x, f)
			for i := range f {
				f[i] += math.Tanh(x[i]) - b[i]
			}
		},
		Method:      "fgmres",
		InnerParams: krylov.Params{RTol: 1e-4, ATol: 1e-300, MaxIt: 400, Restart: 50},
	}
	sys.Prepare = func(x la.Vec) (krylov.Op, krylov.Preconditioner, error) {
		xc := slices.Clone(x)
		op := krylov.OpFunc{Dim: n, F: func(v, y la.Vec) {
			lap(v, y)
			for i := range y {
				c := math.Cosh(xc[i])
				y[i] += v[i] / (c * c)
			}
		}}
		diag := la.NewVec(n)
		for i := range diag {
			c := math.Cosh(xc[i])
			diag[i] = 2 + 1/(c*c)
		}
		return op, krylov.NewJacobi(diag), nil
	}
	return sys, la.NewVec(n)
}

func TestNewtonConvergesQuadratically(t *testing.T) {
	sys, x := nlDiffusion(60)
	opt := DefaultOptions()
	opt.RTol = 1e-12
	res := Solve(sys, x, opt)
	if !res.Converged {
		t.Fatalf("Newton failed: %+v", res)
	}
	if res.Iterations > 12 {
		t.Fatalf("too many Newton iterations: %d", res.Iterations)
	}
	// Terminal phase is superlinear: the last reduction factor is far
	// smaller than the first.
	h := res.History
	if len(h) >= 3 {
		first := h[1] / h[0]
		last := h[len(h)-1] / h[len(h)-2]
		if last > first {
			t.Fatalf("no superlinear terminal phase: first %v, last %v", first, last)
		}
	}
	// Verify the root.
	f := la.NewVec(sys.N)
	sys.Residual(x, f)
	if f.Norm2() > 1e-10*res.FNorm0 {
		t.Fatalf("final residual %v", f.Norm2())
	}
}

func TestPicardVsNewton(t *testing.T) {
	// Picard for the same problem: freeze the nonlinear coefficient,
	// treating tanh(x) = c(x)·x with c = tanh(x)/x, so
	// J_picard = A + diag(c). Picard converges linearly — more outer
	// iterations than Newton's quadratic terminal phase.
	n := 40
	sysN, xN := nlDiffusion(n)
	sysP, xP := nlDiffusion(n)
	sysP.Prepare = func(x la.Vec) (krylov.Op, krylov.Preconditioner, error) {
		xc := slices.Clone(x)
		coef := func(v float64) float64 {
			if math.Abs(v) < 1e-12 {
				return 1
			}
			return math.Tanh(v) / v
		}
		op := krylov.OpFunc{Dim: n, F: func(v, y la.Vec) {
			for i := range v {
				s := 2 * v[i]
				if i > 0 {
					s -= v[i-1]
				}
				if i < n-1 {
					s -= v[i+1]
				}
				y[i] = s + coef(xc[i])*v[i]
			}
		}}
		diag := la.NewVec(n)
		for i := range diag {
			diag[i] = 2 + coef(xc[i])
		}
		return op, krylov.NewJacobi(diag), nil
	}
	opt := DefaultOptions()
	opt.RTol = 1e-8
	opt.MaxIt = 400
	// Fixed, tight inner tolerance for the Picard run: Eisenstat–Walker
	// forcing assumes Newton-quality directions and throttles the inner
	// solves too aggressively for a linearly converging outer iteration.
	optP := opt
	optP.EisenstatWalker = false
	sysP.InnerParams.RTol = 1e-8
	rn := Solve(sysN, xN, opt)
	rp := Solve(sysP, xP, optP)
	if !rn.Converged || !rp.Converged {
		t.Fatalf("newton %v (%d its) picard %v (%d its, |F| %.2e)",
			rn.Converged, rn.Iterations, rp.Converged, rp.Iterations, rp.FNorm/rp.FNorm0)
	}
	if rn.Iterations >= rp.Iterations {
		t.Fatalf("Newton (%d its) not faster than Picard (%d its)", rn.Iterations, rp.Iterations)
	}
}

func TestEisenstatWalkerSavesKrylovWork(t *testing.T) {
	sysA, xA := nlDiffusion(80)
	sysB, xB := nlDiffusion(80)
	optEW := DefaultOptions()
	optEW.RTol = 1e-10
	optFixed := DefaultOptions()
	optFixed.RTol = 1e-10
	optFixed.EisenstatWalker = false
	sysB.InnerParams.RTol = 1e-10 // tight fixed tolerance
	rEW := Solve(sysA, xA, optEW)
	rF := Solve(sysB, xB, optFixed)
	if !rEW.Converged || !rF.Converged {
		t.Fatal("one of the solves failed")
	}
	if rEW.KrylovIts >= rF.KrylovIts {
		t.Fatalf("EW (%d Krylov its) not cheaper than fixed tight (%d)", rEW.KrylovIts, rF.KrylovIts)
	}
}

func TestLineSearchRescuesOvershoot(t *testing.T) {
	// Scalar problem F(x) = atan(x): full Newton steps diverge from
	// x0 = 3 without a line search; backtracking converges.
	evals := 0
	sys := System{
		N: 1,
		Residual: func(x, f la.Vec) {
			evals++
			f[0] = math.Atan(x[0])
		},
		Method:      "fgmres",
		InnerParams: krylov.Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 10, Restart: 5},
	}
	sys.Prepare = func(x la.Vec) (krylov.Op, krylov.Preconditioner, error) {
		xc := x[0]
		op := krylov.OpFunc{Dim: 1, F: func(v, y la.Vec) { y[0] = v[0] / (1 + xc*xc) }}
		return op, krylov.Identity{}, nil
	}
	x := la.Vec{3}
	opt := DefaultOptions()
	opt.RTol = 0
	opt.ATol = 1e-10
	opt.MaxIt = 60
	res := Solve(sys, x, opt)
	if !res.Converged {
		t.Fatalf("line-searched Newton failed: %+v", res)
	}
	if math.Abs(x[0]) > 1e-9 {
		t.Fatalf("root %v", x[0])
	}
	// The search backtracked, so it evaluated more residuals than one per
	// iteration plus the initial one, and the result says how many.
	if res.ResidualEvals != evals || evals <= res.Iterations+1 {
		t.Fatalf("ResidualEvals %d, Residual called %d times over %d iterations", res.ResidualEvals, evals, res.Iterations)
	}
}

func TestResidualHistoryMonotone(t *testing.T) {
	sys, x := nlDiffusion(30)
	opt := DefaultOptions()
	opt.RTol = 1e-10
	res := Solve(sys, x, opt)
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("‖F‖ increased at %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
	if res.History[0] != res.FNorm0 {
		t.Fatal("history does not start at F0")
	}
}
