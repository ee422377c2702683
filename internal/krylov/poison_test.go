package krylov

import (
	"math"
	"testing"

	"ptatin3d/internal/la"
)

// poisonOp is nanOp's operator, clean, except that its call-th
// application writes v into one entry of the solver's residual r (which
// the test reaches through the solve's work vectors) — a single bad entry
// that no operator output carries.
type poisonOp struct {
	n, call, calls int
	v              float64
	r              func() la.Vec
}

func (o *poisonOp) N() int { return o.n }

func (o *poisonOp) Apply(x, y la.Vec) {
	o.calls++
	for i := range y {
		y[i] = 2*x[i] + 0.1*x[(i+1)%o.n]
	}
	if o.calls == o.call {
		o.r()[3] = o.v
	}
}

// TestPoisonedResidualBreaksDownAtOnce: GCR and CG find one NaN (or Inf)
// entry of r in the iteration that put it there, through the norm of r
// they compute anyway — the whole-vector scan they once ran after it
// never saw one the norm had missed.
func TestPoisonedResidualBreaksDownAtOnce(t *testing.T) {
	const n, call = 24, 4 // call 1 is the initial residual: iteration 3 is poisoned
	prm := Params{RTol: 1e-14, ATol: 1e-300, MaxIt: 100, Restart: 10}
	// Not an eigenvector of the circulant operator, as ones would be.
	rhs := func() la.Vec {
		b := la.NewVec(n)
		for i := range b {
			b[i] = float64(1 + i%7)
		}
		return b
	}

	gcrPrm := prm
	gcrPrm.Work = new(Workspace)
	op := &poisonOp{n: n, call: call, v: math.NaN(), r: func() la.Vec { return gcrPrm.Work.vecs[0] }}
	res := GCR(op, Identity{}, rhs(), la.NewVec(n), gcrPrm)
	checkBreakdown(t, "gcr", res, call-1, BreakdownNaN)
	if res.Iterations != call-1 {
		t.Fatalf("gcr: breakdown at iteration %d, want %d", res.Iterations, call-1)
	}

	for _, c := range []struct {
		v    float64
		kind BreakdownKind
	}{{math.NaN(), BreakdownNaN}, {math.Inf(1), BreakdownInf}} {
		cgPrm := prm
		cgPrm.Work = new(Workspace)
		op := &poisonOp{n: n, call: call, v: c.v, r: func() la.Vec { return cgPrm.Work.vecs[0] }}
		res := CG(op, Identity{}, rhs(), la.NewVec(n), cgPrm)
		checkBreakdown(t, "cg", res, call-1, c.kind)
		if res.Iterations != call-1 {
			t.Fatalf("cg, r[3] = %v: breakdown at iteration %d, want %d", c.v, res.Iterations, call-1)
		}
	}
}
