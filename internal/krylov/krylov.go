// Package krylov provides the iterative solvers and preconditioner
// building blocks of the ptatin3d solver stack (paper §III-A): CG, GMRES,
// flexible GMRES, GCR, Chebyshev iteration, plus Jacobi, block-Jacobi(+LU),
// ILU(0) and overlapping additive Schwarz preconditioners, and nested
// (inner Krylov) preconditioning.
//
// Flexible methods (FGMRES, GCR) tolerate nonlinear preconditioners —
// required because several solver configurations in the paper use inner
// iterations (multigrid cycles with Krylov-based coarse solves) inside the
// outer preconditioner.
package krylov

import (
	"fmt"
	"time"

	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// Op is the abstract linear operator y = A·x. fem's operator variants and
// the coupled Stokes operator satisfy it.
type Op interface {
	N() int
	Apply(x, y la.Vec)
}

// CSROp adapts a CSR matrix to Op.
type CSROp struct{ A *la.CSR }

// N returns the row dimension.
func (o CSROp) N() int { return o.A.NRows }

// Apply computes y = A·x.
func (o CSROp) Apply(x, y la.Vec) { o.A.MulVec(x, y) }

// OpFunc adapts a function to Op.
type OpFunc struct {
	Dim int
	F   func(x, y la.Vec)
}

// N returns the dimension.
func (o OpFunc) N() int { return o.Dim }

// Apply invokes the wrapped function.
func (o OpFunc) Apply(x, y la.Vec) { o.F(x, y) }

// Preconditioner applies z = M⁻¹·r. Implementations may be nonlinear
// (inner iterations); pair those with flexible outer methods.
type Preconditioner interface {
	Apply(r, z la.Vec)
}

// PCFunc adapts a function to Preconditioner.
type PCFunc func(r, z la.Vec)

// Apply invokes the wrapped function.
func (f PCFunc) Apply(r, z la.Vec) { f(r, z) }

// Identity is the no-op preconditioner.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(r, z la.Vec) { z.Copy(r) }

// Params controls an iterative solve.
type Params struct {
	RTol    float64 // relative residual tolerance (unpreconditioned)
	ATol    float64 // absolute residual tolerance
	MaxIt   int     // maximum iterations
	Restart int     // restart length for GMRES/FGMRES/GCR (0 = 30)
	History bool    // record per-iteration residual norms

	// StagnationWindow, when > 0, declares a stagnation breakdown after
	// that many consecutive iterations without any residual improvement
	// (typed BreakdownStagnation through Result.Err). 0 disables the
	// check, preserving the plain run-to-MaxIt behaviour.
	StagnationWindow int

	// Reducer, when non-nil, makes the solve rank-collective: every dot
	// product and norm goes through it instead of the serial BLAS-1
	// kernels, and per-vector NaN scans are skipped (ghost-free regions
	// of a rank's vector copy are undefined). Nil keeps the
	// shared-memory path bit-for-bit. See distributed.go.
	Reducer Reducer
	// Exchanger, when non-nil, refreshes the ghost entries of the
	// caller-supplied b and x at solve entry so the first operator
	// application reads consistent halos. Nil disables the exchange.
	Exchanger Exchanger

	// Pipelined selects the latency-tolerant orthogonalisation of FGMRES
	// and GCR (CGS2 with a norm recurrence: two batched reductions per
	// iteration, whatever the basis length; see gcr.go and gmres.go). It
	// only takes effect with a non-nil Reducer — with Reducer == nil the
	// flag is ignored and the solve runs the serial path bit-for-bit.
	Pipelined bool
	// Spans, when non-empty on a rank-collective solve (Reducer != nil),
	// windows every BLAS-1 update inside the solver to the listed index
	// ranges — a rank's owned+ghost rows — so per-rank vector work and
	// touched memory stay O(n/P) instead of O(n) at high rank counts.
	// Entries outside the spans are never read or written by the solver
	// itself (operators and preconditioners keep their own windows).
	// Ignored when Reducer == nil.
	Spans []la.Span

	// Work, when non-nil, lends the solve its n-vectors (residual and
	// Krylov basis) and keeps them for the next solve, so a caller that
	// solves repeatedly — the Stokes solver across Newton iterations and
	// time steps, a rank across its solves — allocates a basis once. The
	// arithmetic does not depend on it. One solve at a time per Workspace.
	Work *Workspace

	// Telemetry, when non-nil, receives structured solve instrumentation:
	// a "residual" series with one sample per recorded residual norm, a
	// "solve" timer, "solves"/"iterations"/"converged" counters and
	// "initial_residual"/"final_residual" gauges. Repeated solves with the
	// same scope accumulate; give each solve its own child scope to keep
	// traces separate. Nil disables everything at nil-check cost.
	Telemetry *telemetry.Scope
}

// DefaultParams returns the package defaults: rtol 1e-5 (the paper's
// Stokes stopping tolerance), atol 1e-50, 10000 iterations, restart 30.
func DefaultParams() Params {
	return Params{RTol: 1e-5, ATol: 1e-50, MaxIt: 10000, Restart: 30}
}

func (p Params) restart() int {
	if p.Restart <= 0 {
		return 30
	}
	return p.Restart
}

// Workspace is the vector store behind Params.Work: the n-vectors a solve
// took, handed out again (contents stale — every solver overwrites a
// vector before it reads it) to the next solve of the same length.
type Workspace struct {
	n    int
	vecs []la.Vec
	used int
}

// workspace returns the store of a solve on n-vectors, rewound: the
// caller's when it lent one, a private one otherwise.
func (p Params) workspace(n int) *Workspace {
	w := p.Work
	if w == nil {
		w = new(Workspace)
	}
	if w.n != n {
		w.n, w.vecs = n, nil
	}
	w.used = 0
	return w
}

// vec returns the next vector of the store, allocating it on first reach.
func (w *Workspace) vec() la.Vec {
	if w.used == len(w.vecs) {
		w.vecs = append(w.vecs, la.NewVec(w.n))
	}
	w.used++
	return w.vecs[w.used-1]
}

// Result reports the outcome of an iterative solve.
type Result struct {
	Converged  bool
	Iterations int
	// BasisVectors is the number of n-vectors of Krylov basis the solve
	// touched, whether it allocated them or found them in Params.Work
	// (GMRES/FGMRES: the v and z actually reached; GCR: the stored
	// direction pairs). 0 for the short-recurrence methods.
	BasisVectors int
	Residual     float64   // final unpreconditioned residual norm
	Residual0    float64   // initial residual norm
	History      []float64 // per-iteration residual norms if requested
	Breakdown    bool      // NaN/Inf or zero denominators encountered
	Stagnated    bool      // stagnation window tripped (see Params)
	// Err carries the typed *BreakdownError when Breakdown is set; nil
	// on clean convergence or a plain iteration-limit stop.
	Err error
}

func (r *Result) record(p Params, rn float64) {
	if p.History {
		r.History = append(r.History, rn)
	}
	p.Telemetry.Series("residual").Append(rn)
}

// begin stamps the start of an instrumented solve. The returned time is
// zero (no clock read) when telemetry is off.
func (p Params) begin() time.Time {
	return p.Telemetry.Timer("solve").Start()
}

// finish records the solve-level telemetry for a completed iteration.
func (r *Result) finish(p Params, start time.Time) {
	sc := p.Telemetry
	if sc == nil {
		return
	}
	sc.Timer("solve").Stop(start)
	sc.Counter("solves").Inc()
	sc.Counter("iterations").Add(int64(r.Iterations))
	if r.Converged {
		sc.Counter("converged").Inc()
	}
	sc.Gauge("initial_residual").Set(r.Residual0)
	sc.Gauge("final_residual").Set(r.Residual)
}

// converged implements the combined rtol/atol test.
func converged(p Params, rn, r0 float64) bool {
	return rn <= p.ATol || rn <= p.RTol*r0
}

// CheckMethod reports whether method names one of the two flexible outer
// methods Solve runs.
func CheckMethod(method string) error {
	if method != "gcr" && method != "fgmres" {
		return fmt.Errorf("krylov: unknown method %q (want gcr or fgmres)", method)
	}
	return nil
}

// Solve runs the named flexible outer method, "gcr" or "fgmres", on
// A·x = b: the one dispatcher behind the nonlinear loop's inner solves
// and both Stokes backends. Any other name comes back as Result.Err —
// no method is picked silently.
func Solve(method string, a Op, m Preconditioner, b, x la.Vec, prm Params) Result {
	switch method {
	case "gcr":
		return GCR(a, m, b, x, prm, nil)
	case "fgmres":
		return FGMRES(a, m, b, x, prm)
	}
	return Result{Err: CheckMethod(method)}
}
