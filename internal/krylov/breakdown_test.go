package krylov

import (
	"errors"
	"math"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// nanOp poisons the output after a few applications, modelling an operator
// whose coefficients went bad mid-solve.
type nanOp struct {
	n     int
	after int
	calls int
}

func (o *nanOp) N() int { return o.n }

func (o *nanOp) Apply(x, y la.Vec) {
	o.calls++
	for i := range y {
		y[i] = 2*x[i] + 0.1*x[(i+1)%o.n]
	}
	if o.calls > o.after {
		y[0] = math.NaN()
	}
}

// zeroOp maps everything to zero — the fully singular worst case.
type zeroOp struct{ n int }

func (o zeroOp) N() int { return o.n }

func (o zeroOp) Apply(x, y la.Vec) { y.Zero() }

func onesVec(n int) la.Vec {
	b := la.NewVec(n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// checkBreakdown asserts a typed breakdown within bounded iterations.
func checkBreakdown(t *testing.T, name string, res Result, maxIt int, kinds ...BreakdownKind) {
	t.Helper()
	var be *BreakdownError
	if !errors.As(res.Err, &be) {
		t.Fatalf("%s: Err = %v, want *BreakdownError", name, res.Err)
	}
	if res.Iterations > maxIt {
		t.Fatalf("%s: %d iterations before breakdown, want <= %d", name, res.Iterations, maxIt)
	}
	for _, k := range kinds {
		if be.Kind == k {
			return
		}
	}
	t.Fatalf("%s: breakdown kind %v, want one of %v", name, be.Kind, kinds)
}

func TestBreakdownNaNOperator(t *testing.T) {
	const n = 24
	prm := Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 100, Restart: 10}
	// after=1: the initial residual evaluation is clean, the first real
	// Krylov matvec is poisoned.
	mk := func() Op { return &nanOp{n: n, after: 1} }

	checkBreakdown(t, "cg", CG(mk(), Identity{}, onesVec(n), la.NewVec(n), prm), 10, BreakdownNaN)
	checkBreakdown(t, "gmres", GMRES(mk(), Identity{}, onesVec(n), la.NewVec(n), prm), 10, BreakdownNaN)
	checkBreakdown(t, "fgmres", FGMRES(mk(), Identity{}, onesVec(n), la.NewVec(n), prm), 10, BreakdownNaN)
	checkBreakdown(t, "gcr", GCR(mk(), Identity{}, onesVec(n), la.NewVec(n), prm), 10, BreakdownNaN)
}

func TestBreakdownSingularOperator(t *testing.T) {
	const n = 16
	prm := Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 50, Restart: 10}
	a := zeroOp{n: n}

	// A singular operator yields a zero pivot (CG/GCR/GMRES) — the methods
	// must detect it instead of dividing by zero.
	checkBreakdown(t, "cg", CG(a, Identity{}, onesVec(n), la.NewVec(n), prm), 2, BreakdownZeroPivot, BreakdownNaN)
	checkBreakdown(t, "gmres", GMRES(a, Identity{}, onesVec(n), la.NewVec(n), prm), 2, BreakdownZeroPivot, BreakdownNaN)
	checkBreakdown(t, "fgmres", FGMRES(a, Identity{}, onesVec(n), la.NewVec(n), prm), 2, BreakdownZeroPivot, BreakdownNaN)
	reg := telemetry.New()
	prm.Telemetry = reg.Root()
	checkBreakdown(t, "gcr", GCR(a, Identity{}, onesVec(n), la.NewVec(n), prm), 2, BreakdownZeroPivot, BreakdownNaN)
	if got := reg.Root().Counter("breakdowns").Value(); got != 1 {
		t.Errorf("breakdowns counter = %d, want 1", got)
	}
}

func TestBreakdownNaNRHS(t *testing.T) {
	const n = 8
	prm := Params{RTol: 1e-10, ATol: 1e-300, MaxIt: 20, Restart: 5}
	b := onesVec(n)
	b[3] = math.NaN()
	a := &nanOp{n: n, after: 1 << 30} // never poisons on its own
	checkBreakdown(t, "cg", CG(a, Identity{}, b, la.NewVec(n), prm), 1, BreakdownNaN)
	checkBreakdown(t, "fgmres", FGMRES(&nanOp{n: n, after: 1 << 30}, Identity{}, b, la.NewVec(n), prm), 1, BreakdownNaN)
	checkBreakdown(t, "gcr", GCR(&nanOp{n: n, after: 1 << 30}, Identity{}, b, la.NewVec(n), prm), 1, BreakdownNaN)
}

func TestBreakdownErrorText(t *testing.T) {
	be := &BreakdownError{Method: "gcr", Kind: BreakdownNaN, Iteration: 7, Value: math.NaN()}
	if be.Error() == "" || BreakdownZeroPivot.String() == "" {
		t.Fatal("empty diagnostics")
	}
	var err error = be
	if !errors.Is(errors.Join(err), err) {
		t.Fatal("errors plumbing broken")
	}
	if errors.As(errors.New("plain"), new(*BreakdownError)) {
		t.Fatal("errors.As matched a non-breakdown error")
	}
}

// TestHealthySolveHasNilErr pins the no-fault path: a well-conditioned SPD
// solve must converge with Err == nil.
func TestHealthySolveHasNilErr(t *testing.T) {
	const n = 30
	a := OpFunc{Dim: n, F: func(x, y la.Vec) {
		for i := range y {
			y[i] = 4 * x[i]
			if i > 0 {
				y[i] -= x[i-1]
			}
			if i < n-1 {
				y[i] -= x[i+1]
			}
		}
	}}
	prm := Params{RTol: 1e-10, ATol: 1e-300, MaxIt: 200, Restart: 30}
	for name, res := range map[string]Result{
		"cg":     CG(a, Identity{}, onesVec(n), la.NewVec(n), prm),
		"fgmres": FGMRES(a, Identity{}, onesVec(n), la.NewVec(n), prm),
		"gcr":    GCR(a, Identity{}, onesVec(n), la.NewVec(n), prm),
	} {
		if !res.Converged || res.Err != nil {
			t.Errorf("%s: converged=%v err=%v", name, res.Converged, res.Err)
		}
	}
}

// TestSolveWithFallbackSwitchesOnce: a breakdown is retried once, with the
// other flexible method, on a zeroed correction; the result sums the
// iterations and keeps the larger basis; a clean first attempt is not
// retried.
func TestSolveWithFallbackSwitchesOnce(t *testing.T) {
	for method, want := range map[string]string{"gcr": "fgmres", "fgmres": "gcr"} {
		delta := la.Vec{1, 2, 3}
		var ran []string
		res, alt := SolveWithFallback(method, delta, func(m string) Result {
			ran = append(ran, m)
			if len(ran) == 1 {
				delta[0] = math.NaN()
				return Result{Iterations: 3, BasisVectors: 8, Err: &BreakdownError{Method: m, Kind: BreakdownNaN}}
			}
			if delta.Norm2() != 0 {
				t.Errorf("%s: the retry starts from %v, want zero", method, delta)
			}
			return Result{Iterations: 5, BasisVectors: 4, Converged: true}
		})
		if alt != want || len(ran) != 2 || ran[1] != want || res.Iterations != 8 || res.BasisVectors != 8 || !res.Converged || res.Err != nil {
			t.Errorf("%s: ran %v, alt %q, result %+v; want one retry with %s", method, ran, alt, res, want)
		}
		calls := 0
		res, alt = SolveWithFallback(method, delta, func(string) Result {
			calls++
			return Result{Iterations: 2, Converged: true}
		})
		if alt != "" || calls != 1 || res.Iterations != 2 {
			t.Errorf("%s: a clean solve ran %d times, alt %q", method, calls, alt)
		}
	}
}
