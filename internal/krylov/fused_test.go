package krylov

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
)

// serialReducer is a Reducer whose Dot is the serial x.Dot(y) and whose
// AXPYDot is the update followed by that Dot: the two-step arithmetic the
// fused sweeps replaced, with the shared path's sums, and so their
// oracle. spans are the windows the solve packs on (nil: full length).
type serialReducer struct{ spans []la.Span }

func (serialReducer) Dot(x, y la.Vec) float64 { return x.Dot(y) }

func (serialReducer) AXPYDot(v la.Vec, alpha float64, x, y la.Vec) float64 {
	v.AXPY(alpha, x)
	return v.Dot(y)
}

func (rd serialReducer) Spans() []la.Span { return rd.spans }

// stallPC projects out everything but the first coordinate: the solver
// can only ever correct e₀, so with a multi-component residual it stalls.
type stallPC struct{}

func (stallPC) Apply(r, z la.Vec) {
	z.Zero()
	z[0] = r[0]
}

// TestFusedGramSchmidtBitIdentical: FGMRES, GMRES, GCR and CG give the
// same iterate, residual history, Monitor residuals and Result, bit for
// bit, on the shared path (Reducer == nil: update and reduction fused in
// one sweep) and through serialReducer (today's two steps) — converging
// within one restart window and across restart cycles of 7, and ending
// on a breakdown.
func TestFusedGramSchmidtBitIdentical(t *testing.T) {
	ns := nonsym(300)
	dn := la.NewVec(ns.NRows)
	ns.Diag(dn)
	lap := lap3d(6)
	dl := la.NewVec(lap.NRows)
	lap.Diag(dl)
	rng := rand.New(rand.NewSource(41))
	solvers := map[string]func(Op, Preconditioner, la.Vec, la.Vec, Params) Result{
		"fgmres": FGMRES, "gmres": GMRES, "gcr": GCR, "cg": CG,
	}
	type problem struct {
		name string
		a    Op
		m    Preconditioner
		prm  Params
	}
	for _, method := range []string{"fgmres", "gmres", "gcr", "cg"} {
		a, m := Op(CSROp{ns}), Preconditioner(NewJacobi(dn))
		if method == "cg" {
			a, m = CSROp{lap}, NewJacobi(dl)
		}
		var problems []problem
		for _, restart := range []int{80, 7} {
			prm := DefaultParams()
			prm.RTol, prm.Restart, prm.MaxIt = 1e-10, restart, 200
			problems = append(problems, problem{fmt.Sprintf("restart=%d", restart), a, m, prm})
		}
		// The identity operator with a preconditioner that only ever
		// corrects e₀: the residual plateaus until a direction vanishes,
		// exactly or (GMRES) to rounding level — a zero pivot within the
		// first restart cycle.
		stall := Params{RTol: 1e-12, ATol: 1e-300, MaxIt: 200, Restart: 7}
		problems = append(problems, problem{"stalled", OpFunc{Dim: 12, F: func(x, y la.Vec) { y.Copy(x) }}, stallPC{}, stall})

		for _, p := range problems {
			name := method + " " + p.name
			n := p.a.N()
			b, x0 := randVec(rng, n), randVec(rng, n)
			var monitored [2][]la.Vec
			var xs [2]la.Vec
			var res [2]Result
			var history [2]func() []float64
			for k := range res {
				prm, hist := traced(p.prm)
				history[k] = hist
				if k == 1 {
					prm.Reducer = serialReducer{}
				}
				prm.Monitor = func(it int, r la.Vec) {
					if it != len(monitored[k]) {
						t.Fatalf("%s: Monitor called for iteration %d after %d calls", name, it, len(monitored[k]))
					}
					monitored[k] = append(monitored[k], slices.Clone(r))
				}
				xs[k] = slices.Clone(x0)
				res[k] = solvers[method](p.a, p.m, b, xs[k], prm)
			}
			fused, twoStep := res[0], res[1]
			if p.name == "stalled" {
				if !errors.As(fused.Err, new(*BreakdownError)) || fused.Converged || fused.Iterations > p.prm.Restart {
					t.Fatalf("%s: %+v, want a *BreakdownError within one restart cycle of %d", name, fused, p.prm.Restart)
				}
			} else if !fused.Converged || (p.name == "restart=7" && method != "cg" && fused.Iterations <= 7) {
				t.Fatalf("%s: converged=%v in %d iterations: want convergence, past a restart at 7", name, fused.Converged, fused.Iterations)
			}
			sameBits(t, name+" iterate", xs[0], xs[1])
			fusedHist, twoStepHist := history[0](), history[1]()
			if len(fusedHist) != len(twoStepHist) {
				t.Fatalf("%s: %d residuals fused, %d in two steps", name, len(fusedHist), len(twoStepHist))
			}
			sameBits(t, name+" history", fusedHist, twoStepHist)
			if fused.Converged != twoStep.Converged || fused.Iterations != twoStep.Iterations ||
				fused.BasisVectors != twoStep.BasisVectors ||
				math.Float64bits(fused.Residual) != math.Float64bits(twoStep.Residual) ||
				math.Float64bits(fused.Residual0) != math.Float64bits(twoStep.Residual0) ||
				fmt.Sprint(fused.Err) != fmt.Sprint(twoStep.Err) {
				t.Fatalf("%s: results differ:\nfused    %+v\ntwo-step %+v", name, fused, twoStep)
			}
			// GCR and CG hand over their explicit residual, initial one
			// included; GMRES holds none.
			want := 0
			if method == "gcr" || method == "cg" {
				want = fused.Iterations + 1
			}
			if len(monitored[0]) != want || len(monitored[1]) != want {
				t.Fatalf("%s: Monitor called %d and %d times, want %d", name, len(monitored[0]), len(monitored[1]), want)
			}
			for i := range monitored[0] {
				sameBits(t, fmt.Sprintf("%s monitored residual %d", name, i), monitored[0][i], monitored[1][i])
			}
		}
	}
}
