package krylov

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
)

// rankReducer is a deterministic Reducer/BatchReducer with the arithmetic
// of the rank-collective reducers (stokes.coupledReducer over
// comm.AllReduceSumVec): indices are cut into Ranks contiguous blocks,
// each block's partial is a plain left-to-right sum, and the global value
// is the left-associated sum of the partials in rank order. The rounding
// of every inner product therefore follows the decomposition, as it does
// on the simulated fabric.
type rankReducer struct{ Ranks int }

func (rr *rankReducer) Dot(x, y la.Vec) float64 {
	n := len(x)
	var sum float64
	for r := 0; r < rr.Ranks; r++ {
		var p float64
		for i := r * n / rr.Ranks; i < (r+1)*n/rr.Ranks; i++ {
			p += x[i] * y[i]
		}
		sum += p
	}
	return sum
}

func (rr *rankReducer) DotBatch(xs, ys []la.Vec) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = rr.Dot(xs[i], ys[i])
	}
	return out
}

// pipeRun solves a·x = b with the given method, pipelined or classical.
func pipeRun(a *la.CSR, b la.Vec, method string, prm Params) (la.Vec, Result) {
	x := la.NewVec(a.NRows)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	m := NewJacobi(d)
	var res Result
	switch method {
	case "gcr":
		res = GCR(CSROp{a}, m, b, x, prm, nil)
	case "fgmres":
		res = FGMRES(CSROp{a}, m, b, x, prm)
	default:
		res = GMRES(CSROp{a}, m, b, x, prm)
	}
	return x, res
}

// TestPipelinedMatchesClassical is the property test of the pipelined
// variants: on randomized nonsymmetric systems the pipelined GCR and
// FGMRES solves must reach the same solution to ≤1e-10 and within ±2
// outer iterations of the classical variant.
func TestPipelinedMatchesClassical(t *testing.T) {
	type tc struct {
		name   string
		method string
	}
	cases := []tc{
		{"gcr-nonsym", "gcr"},
		{"fgmres-nonsym", "fgmres"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				a := nonsym(400)
				b := randVec(rng, a.NRows)

				prm := DefaultParams()
				prm.RTol = 1e-10
				prm.MaxIt = 500
				xc, rc := pipeRun(a, b, c.method, prm)
				if !rc.Converged {
					t.Fatalf("seed %d: classical %s did not converge: %+v", seed, c.method, rc)
				}

				prm.Pipelined = true
				prm.Reducer = &rankReducer{Ranks: 8}
				xp, rp := pipeRun(a, b, c.method, prm)
				if !rp.Converged {
					t.Fatalf("seed %d: pipelined %s did not converge: %+v", seed, c.method, rp)
				}

				if d := rp.Iterations - rc.Iterations; d < -2 || d > 2 {
					t.Fatalf("seed %d: iteration drift %d vs %d", seed, rp.Iterations, rc.Iterations)
				}
				diff := slices.Clone(xp)
				diff.AXPY(-1, xc)
				if rel := diff.Norm2() / math.Max(xc.Norm2(), 1e-300); rel > 1e-10 {
					t.Fatalf("seed %d: solutions deviate: rel %.3e", seed, rel)
				}
			}
		})
	}
}

// TestPipelinedAcrossRankCounts: a reducer's rounding follows the
// decomposition, so pipelined trajectories are not bit-identical across
// rank counts — what must hold at every count is what holds against the
// classical method: the same solution to 1e-10 and the same iteration
// count ±2. (An earlier form of this test claimed bit-identity and
// "proved" it with a reducer whose sums ignored its rank count.)
func TestPipelinedAcrossRankCounts(t *testing.T) {
	for _, method := range []string{"gcr", "fgmres"} {
		t.Run(method, func(t *testing.T) {
			a := nonsym(400)
			rng := rand.New(rand.NewSource(7))
			b := randVec(rng, a.NRows)

			prm := DefaultParams()
			prm.RTol = 1e-10
			prm.MaxIt = 500
			ref, refRes := pipeRun(a, b, method, prm)
			if !refRes.Converged {
				t.Fatalf("classical %s did not converge: %+v", method, refRes)
			}
			prm.Pipelined = true
			for _, ranks := range []int{1, 8, 64} {
				prm.Reducer = &rankReducer{Ranks: ranks}
				x, res := pipeRun(a, b, method, prm)
				if !res.Converged {
					t.Fatalf("ranks=%d: did not converge: %+v", ranks, res)
				}
				if d := res.Iterations - refRes.Iterations; d < -2 || d > 2 {
					t.Fatalf("ranks=%d: %d iterations vs %d classical", ranks, res.Iterations, refRes.Iterations)
				}
				diff := slices.Clone(x)
				diff.AXPY(-1, ref)
				if rel := diff.Norm2() / ref.Norm2(); rel > 1e-10 {
					t.Fatalf("ranks=%d: solution deviates from classical: rel %.3e", ranks, rel)
				}
			}
		})
	}
}

// TestPipelinedFlagIgnoredWithoutReducer: with Reducer == nil the
// Pipelined flag must be inert — the serial classical path runs
// bit-for-bit, so existing single-process callers cannot be perturbed
// by the flag.
func TestPipelinedFlagIgnoredWithoutReducer(t *testing.T) {
	a := lap3d(5)
	rng := rand.New(rand.NewSource(3))
	b := randVec(rng, a.NRows)
	for _, method := range []string{"gcr", "fgmres"} {
		prm := DefaultParams()
		prm.RTol = 1e-10
		x1, r1 := pipeRun(a, b, method, prm)
		prm.Pipelined = true
		x2, r2 := pipeRun(a, b, method, prm)
		if r1.Iterations != r2.Iterations {
			t.Fatalf("%s: Pipelined without Reducer changed iterations: %d vs %d", method, r1.Iterations, r2.Iterations)
		}
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("%s: Pipelined without Reducer changed x[%d]", method, i)
			}
		}
	}
}
