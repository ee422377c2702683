package krylov

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
)

// windowApply lifts a compact apply f (on vectors packed on spans) to
// full-length vectors: it reads x on the windows only, and writes y there
// and NaN everywhere else, so an entry outside the windows that a solve
// carried from one apply into the next would poison the iteration.
type windowApply struct {
	n      int
	spans  []la.Span
	f      func(x, y la.Vec)
	xc, yc la.Vec
}

func newWindowApply(n int, spans []la.Span, f func(x, y la.Vec)) *windowApply {
	np := la.SpansLen(spans)
	return &windowApply{n: n, spans: spans, f: f, xc: la.NewVec(np), yc: la.NewVec(np)}
}

func (o *windowApply) N() int { return o.n }

func (o *windowApply) Apply(x, y la.Vec) {
	if len(x) != o.n || len(y) != o.n {
		panic("windowApply: an apply crossed with a vector that is not full length")
	}
	o.xc.Pack(x, o.spans)
	o.f(o.xc, o.yc)
	y.Set(math.NaN())
	y.Unpack(o.yc, o.spans)
}

// TestPackedSolveMatchesCompact: a rank-collective solve whose Reducer
// has Spans keeps b, x, the residual and the basis packed on the
// windows and crosses each apply through the full-length buffers; on an
// operator and preconditioner that act on the windows alone it follows
// the solve of the compact system — same residual history, Monitor
// residuals, iterate and Result, bit for bit — for GCR, FGMRES, GMRES
// and CG, across restart cycles. One lent Workspace serves two window
// sets of different totals and then a full-length solve, holding only
// vectors of the current layout and at most two apply buffers.
func TestPackedSolveMatchesCompact(t *testing.T) {
	const n = 400
	layouts := [][]la.Span{
		{{Lo: 10, Hi: 90}, {Lo: 120, Hi: 250}, {Lo: 300, Hi: 380}},
		{{Lo: 0, Hi: 50}, {Lo: 200, Hi: 400}},
		nil, // the shared path: the packed vector is the full vector
	}
	rng := rand.New(rand.NewSource(41))
	for _, method := range []string{"gcr", "fgmres", "gmres", "cg"} {
		ws := new(Workspace)
		for _, spans := range layouts {
			np := n
			if spans != nil {
				np = la.SpansLen(spans)
			}
			// An SPD tridiagonal system on the packed unknowns, diagonal
			// varying so that Jacobi is not a scaling.
			bld := la.NewBuilder(np, np)
			for i := 0; i < np; i++ {
				bld.Add(i, i, 3+float64(i%5))
				if i > 0 {
					bld.Add(i, i-1, -1)
				}
				if i < np-1 {
					bld.Add(i, i+1, -1)
				}
			}
			a := bld.ToCSR()
			d := la.NewVec(np)
			a.Diag(d)
			b := randVec(rng, np)
			solve := func(a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
				switch method {
				case "gmres":
					return GMRES(a, m, b, x, prm)
				case "cg":
					return CG(a, m, b, x, prm)
				}
				return Solve(method, a, m, b, x, prm)
			}
			prm := Params{RTol: 1e-10, ATol: 1e-300, MaxIt: 200, Restart: 7, Reducer: serialReducer{}}
			var monC, monP []la.Vec
			pc, histC := traced(prm)
			pc.Monitor = func(_ int, r la.Vec) { monC = append(monC, slices.Clone(r)) }
			xc := la.NewVec(np)
			resC := solve(CSROp{a}, NewJacobi(d), b, xc, pc)

			pp, histP := traced(prm)
			pp.Reducer, pp.Work = serialReducer{spans}, ws
			pp.Monitor = func(_ int, r la.Vec) { monP = append(monP, slices.Clone(r)) }
			xp := la.NewVec(np)
			var op Op = CSROp{a}
			var pcw Preconditioner = NewJacobi(d)
			if spans != nil {
				op = newWindowApply(n, spans, CSROp{a}.Apply)
				pcw = newWindowApply(n, spans, NewJacobi(d).Apply)
			}
			resP := solve(op, pcw, b, xp, pp)

			name := method + " " + map[bool]string{true: "packed", false: "full length"}[spans != nil]
			if !resC.Converged || resC.Iterations <= prm.Restart {
				t.Fatalf("%s: the compact solve converged %v in %d iterations; want convergence past one restart", name, resC.Converged, resC.Iterations)
			}
			if resP.Converged != resC.Converged || resP.Iterations != resC.Iterations || resP.BasisVectors != resC.BasisVectors ||
				math.Float64bits(resP.Residual) != math.Float64bits(resC.Residual) || resP.Err != nil {
				t.Fatalf("%s: %+v, compact %+v", name, resP, resC)
			}
			sameBits(t, name+" history", histP(), histC())
			sameBits(t, name+" iterate", xp, xc)
			if len(monP) != len(monC) {
				t.Fatalf("%s: Monitor called %d times, compact %d", name, len(monP), len(monC))
			}
			for i := range monC {
				if len(monP[i]) != np {
					t.Fatalf("%s: Monitor saw a residual of length %d, want the packed %d", name, len(monP[i]), np)
				}
				sameBits(t, name+" Monitor residual", monP[i], monC[i])
			}
			for _, v := range ws.vecs {
				if len(v) != np {
					t.Fatalf("%s: the workspace holds a vector of length %d, want %d", name, len(v), np)
				}
			}
			buffers := 0
			for _, f := range ws.full {
				if f != nil {
					buffers++
					if len(f) != n {
						t.Fatalf("%s: an apply buffer of length %d, want %d", name, len(f), n)
					}
				}
			}
			if (buffers > 0) != (spans != nil) {
				t.Fatalf("%s: %d apply buffers", name, buffers)
			}
		}
	}
}
