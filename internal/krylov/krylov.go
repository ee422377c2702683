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
	"errors"
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

	// Reducer, when non-nil, makes the solve rank-collective: every dot
	// product and norm goes through it instead of the serial BLAS-1
	// kernels, and each update that a reduction of the updated vector
	// follows is one sweep with it (Reducer.AXPYDot). Nil keeps the
	// shared-memory path bit-for-bit. See distributed.go.
	//
	// When its Spans are non-nil, every vector of the solve is packed on
	// them (la.Vec.Pack): b and x, which the caller hands over packed,
	// and the residual, the Krylov basis and directions the solve stores,
	// O(n/P) per rank. Every BLAS-1 update and every Reducer call then
	// runs on packed vectors. A vector crosses Op.Apply or
	// Preconditioner.Apply through one of two full-length buffers of the
	// Workspace: unpacked into one, applied into the other, packed back.
	// Operators and preconditioners read and write only the windows'
	// entries of those buffers.
	Reducer Reducer

	// Work, when non-nil, lends the solve its vectors (residual and
	// Krylov basis), its apply buffers and its Hessenberg state, and keeps
	// them for the next solve, so a caller that solves repeatedly — the
	// Stokes solver across Newton iterations and time steps, a rank across
	// its solves, an inner solve across V-cycles — allocates them once. The
	// arithmetic does not depend on it. One solve at a time per Workspace.
	Work *Workspace

	// Monitor, when non-nil, receives the iteration number and the
	// explicit residual vector after every step (iteration 0: the initial
	// residual) of a method that holds one, GCR and CG, in the solve's
	// layout: full length, or packed on Reducer.Spans on a rank; the Figure-2
	// per-field residual histories are read off GCR's. FGMRES and GMRES
	// hold their residual only through the Givens recurrence and ignore
	// it.
	Monitor func(it int, r la.Vec)

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

// Workspace is the store behind Params.Work: the vectors a solve took,
// handed out again (contents stale — every solver overwrites a vector
// before it reads it) to the next solve of the same layout, beside the
// solve's scratch.
type Workspace struct {
	n, np int       // full and packed length; np == n on the shared path
	spans []la.Span // the solve's windows; nil on the shared path
	vecs  []la.Vec  // np-vectors, in the order the solve first took them
	used  int
	full  [2]la.Vec // apply buffers of a packed solve, allocated on first use

	// The basis slots of FGMRES/GMRES (v, z) and GCR (z, q directions),
	// and the Hessenberg matrix, Givens rotations, rotated right-hand side
	// and triangular solution of FGMRES/GMRES, sized for one restart length.
	slots   [2][]la.Vec
	h       []float64
	cs, sn  []float64
	g, y    []float64
	restart int
}

// workspace returns the store of a solve on n-vectors, rewound: the
// caller's when it lent one, a private one otherwise. A store kept from a
// solve of another layout (length or windows' total) starts empty.
func (p Params) workspace(n int) *Workspace {
	w := p.Work
	if w == nil {
		w = new(Workspace)
	}
	var sp []la.Span
	if p.Reducer != nil {
		sp = p.Reducer.Spans()
	}
	np := n
	if sp != nil {
		np = la.SpansLen(sp)
	}
	if w.n != n || w.np != np {
		*w = Workspace{n: n, np: np}
	}
	w.spans = sp
	w.used = 0
	return w
}

// vec returns the next vector of the store, allocating it on first reach.
func (w *Workspace) vec() la.Vec {
	if w.used == len(w.vecs) {
		w.vecs = append(w.vecs, la.NewVec(w.np))
	}
	w.used++
	return w.vecs[w.used-1]
}

// basis returns the two slot lists of a solve with restart length mr,
// mr+1 slots each, emptied: a solve fills a slot from vec when it first
// reaches it.
func (w *Workspace) basis(mr int) (a, b []la.Vec) {
	for i := range w.slots {
		if len(w.slots[i]) != mr+1 {
			w.slots[i] = make([]la.Vec, mr+1)
		}
		clear(w.slots[i])
	}
	return w.slots[0], w.slots[1]
}

// hessenberg returns the (mr+1)×mr Hessenberg matrix, the rotations and
// g (mr+1) and y (mr) of a GMRES(mr) solve. Every entry a solve reads it
// has written first in the same restart cycle, so they are not cleared.
func (w *Workspace) hessenberg(mr int) (h, cs, sn, g, y []float64) {
	if w.restart != mr {
		w.restart = mr
		w.h = make([]float64, (mr+1)*mr)
		w.cs, w.sn = make([]float64, mr), make([]float64, mr)
		w.g, w.y = make([]float64, mr+1), make([]float64, mr)
	}
	return w.h, w.cs, w.sn, w.g, w.y
}

// apply computes y = f(x) — f an Op's or a Preconditioner's Apply — for
// vectors x and y of the solve's layout and returns y's full-length image:
// y itself on the shared path; on a packed solve x is unpacked into an
// apply buffer and f writes into the other one, which is packed into y
// and returned (valid until the next apply). f is a method value, not an
// interface: converting an Op to an interface of its own would go through
// the runtime's type-assertion cache, which allocates now and then.
func (w *Workspace) apply(f func(x, y la.Vec), x, y la.Vec) la.Vec {
	xf := x
	if w.spans != nil {
		xf = w.buffer(0)
		xf.Unpack(x, w.spans)
	}
	return w.applyFull(f, xf, y)
}

// applyFull is apply for an x already full length — the image an earlier
// apply returned — so a preconditioner's output feeds the operator without
// being unpacked again.
func (w *Workspace) applyFull(f func(x, y la.Vec), xf, y la.Vec) la.Vec {
	if w.spans == nil {
		f(xf, y)
		return y
	}
	yf := w.buffer(0)
	if &yf[0] == &xf[0] {
		yf = w.buffer(1)
	}
	f(xf, yf)
	y.Pack(yf, w.spans)
	return yf
}

// buffer returns apply buffer i, allocating it on first use.
func (w *Workspace) buffer(i int) la.Vec {
	if w.full[i] == nil {
		w.full[i] = la.NewVec(w.n)
	}
	return w.full[i]
}

// Result reports the outcome of an iterative solve.
type Result struct {
	Converged  bool
	Iterations int
	// BasisVectors is the number of vectors of Krylov basis the solve
	// touched, whether it allocated them or found them in Params.Work
	// (GMRES/FGMRES: the v and z actually reached; GCR: the stored
	// direction pairs). 0 for the short-recurrence methods.
	BasisVectors int
	Residual     float64 // final unpreconditioned residual norm
	Residual0    float64 // initial residual norm
	// Err is the typed *BreakdownError of a solve that met a NaN/Inf or
	// a zero denominator (or Solve's error for an unknown method); nil on
	// clean convergence or a plain iteration-limit stop.
	Err error
}

// record logs the residual norm rn of iteration r.Iterations and hands
// the explicit residual vector rv — packed on Reducer.Spans on a rank — to
// Params.Monitor; methods that hold no such vector pass nil.
func (r *Result) record(p Params, rn float64, rv la.Vec) {
	p.Telemetry.Series("residual").Append(rn)
	if p.Monitor != nil && rv != nil {
		p.Monitor(r.Iterations, rv)
	}
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
		return GCR(a, m, b, x, prm)
	case "fgmres":
		return FGMRES(a, m, b, x, prm)
	}
	return Result{Err: CheckMethod(method)}
}

// SolveWithFallback runs solve with method and, when that breaks down
// (a *BreakdownError in Result.Err's chain), zeroes delta and runs it once
// more with the other flexible method. Any other error (a decomposition
// the mesh cannot take, say) comes back as it is, with alt "": no method
// can mend it. The field-split preconditioner is nonlinear, so GCR
// and FGMRES are both legal, and they fail differently (explicit residual
// against the Arnoldi recurrence), which is what makes the switch worth
// trying. The result is the last attempt's, with Iterations summed and
// BasisVectors the larger over both attempts; alt names the method of the
// retry, "" when the first attempt did not break down.
func SolveWithFallback(method string, delta la.Vec, solve func(method string) Result) (res Result, alt string) {
	res = solve(method)
	if !errors.As(res.Err, new(*BreakdownError)) {
		return res, ""
	}
	alt = "fgmres"
	if method == "fgmres" {
		alt = "gcr"
	}
	first := res
	delta.Zero()
	res = solve(alt)
	res.Iterations += first.Iterations
	res.BasisVectors = max(res.BasisVectors, first.BasisVectors)
	return res, alt
}
