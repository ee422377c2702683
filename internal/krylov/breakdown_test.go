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
	if !res.Breakdown {
		t.Fatalf("%s: Breakdown flag not set (converged=%v, its=%d)", name, res.Converged, res.Iterations)
	}
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
	checkBreakdown(t, "gcr", GCR(a, Identity{}, onesVec(n), la.NewVec(n), prm), 2, BreakdownZeroPivot, BreakdownNaN)
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

// rotOp rotates in a 2D subspace: Krylov methods make no progress on the
// orthogonal complement, so the residual plateaus — a stagnation case.
type stallPC struct{ n int }

func (p stallPC) Apply(r, z la.Vec) {
	// Project out everything but the first coordinate: the solver can only
	// ever correct e_0, so with a multi-component residual it stalls.
	z.Zero()
	z[0] = r[0]
}

func TestBreakdownStagnationWindow(t *testing.T) {
	const n = 12
	reg := telemetry.New()
	prm := Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 200, Restart: 8,
		StagnationWindow: 5, Telemetry: reg.Root()}
	a := OpFunc{Dim: n, F: func(x, y la.Vec) { y.Copy(x) }} // identity
	res := GCR(a, stallPC{n: n}, onesVec(n), la.NewVec(n), prm)
	checkBreakdown(t, "gcr", res, 40, BreakdownStagnation, BreakdownZeroPivot)
	if res.Err != nil {
		if be := new(*BreakdownError); errors.As(res.Err, be) && (*be).Kind == BreakdownStagnation && !res.Stagnated {
			t.Error("Stagnated flag not set on stagnation breakdown")
		}
	}
	if reg.Root().Counter("breakdowns").Value() != 1 {
		t.Errorf("breakdowns counter = %d, want 1", reg.Root().Counter("breakdowns").Value())
	}

	// Window disabled: same solve must run to MaxIt without a breakdown.
	prm2 := prm
	prm2.StagnationWindow = 0
	prm2.Telemetry = nil
	res2 := GCR(a, stallPC{n: n}, onesVec(n), la.NewVec(n), prm2)
	if be := new(*BreakdownError); errors.As(res2.Err, be) && (*be).Kind == BreakdownStagnation {
		t.Error("stagnation breakdown fired with the window disabled")
	}
}

func TestBreakdownErrorText(t *testing.T) {
	be := &BreakdownError{Method: "gcr", Kind: BreakdownNaN, Iteration: 7, Value: math.NaN()}
	if be.Error() == "" || BreakdownStagnation.String() == "" {
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
// solve must converge with Err == nil and Breakdown false.
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
	prm := Params{RTol: 1e-10, ATol: 1e-300, MaxIt: 200, Restart: 30, StagnationWindow: 10}
	for name, res := range map[string]Result{
		"cg":     CG(a, Identity{}, onesVec(n), la.NewVec(n), prm),
		"fgmres": FGMRES(a, Identity{}, onesVec(n), la.NewVec(n), prm),
		"gcr":    GCR(a, Identity{}, onesVec(n), la.NewVec(n), prm),
	} {
		if !res.Converged || res.Err != nil || res.Breakdown {
			t.Errorf("%s: converged=%v err=%v breakdown=%v", name, res.Converged, res.Err, res.Breakdown)
		}
	}
}
