package model

import (
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/stokes"
)

// StokesBackend executes the inner linear solves of the nonlinear Stokes
// iteration. The nonlinear loop itself (residual evaluation, Eisenstat–
// Walker forcing, line search) always runs serially on the full state;
// the backend decides how each correction system J·δ = rhs is solved —
// in shared memory on this process, or collectively over a simulated
// rank world. scenario.Compile installs SharedBackend.
type StokesBackend interface {
	// Name identifies the backend in telemetry and StepStats
	// ("shared", "distributed").
	Name() string
	// LinearSolve solves J·δ = rhs to the tolerances in prm, writing the
	// correction into delta (already zeroed). s is the preconditioner
	// stack built by the current relinearization, never nil: a failed
	// setup stops the nonlinear loop before any solve.
	LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result
}

// CommStatsReporter is implemented by backends that accumulate per-rank
// communication statistics; StepForward drains them into the step's
// StepStats record.
type CommStatsReporter interface {
	// TakeCommStats returns the per-rank communication volume
	// accumulated since the last call, and resets the accumulator.
	TakeCommStats() []stokes.RankStats
}

// SharedBackend is the in-process backend: every inner solve runs the
// serial Krylov method (krylov.Solve) on the operator/preconditioner pair
// of the current relinearization, in the Krylov workspace of the solver
// that pair belongs to.
type SharedBackend struct{}

// Name implements StokesBackend.
func (SharedBackend) Name() string { return "shared" }

// LinearSolve implements StokesBackend.
func (SharedBackend) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	prm.Work = &s.Work
	return krylov.Solve(method, jop, pc, rhs, delta, prm)
}

// DistributedBackend routes every inner solve through
// stokes.Solver.LinearSolveDistributed on a Px×Py×Pz simulated rank
// world: coupled halo operator, distributed V-cycle, deterministic
// collectives. The per-level decompositions must nest (Px, Py, Pz
// divide the element counts on every geometric level). The ranks apply
// the operator the nonlinear loop hands over — Picard or Newton — element
// by element; the preconditioner is the Picard stack on both backends.
type DistributedBackend struct {
	Px, Py, Pz int
	// Opts carries the coarse agglomeration and fabric model options.
	Opts stokes.DistOptions

	stats []stokes.RankStats
}

// NewDistributedBackend returns a backend over a px×py×pz world.
func NewDistributedBackend(px, py, pz int, opts stokes.DistOptions) *DistributedBackend {
	return &DistributedBackend{Px: max(1, px), Py: max(1, py), Pz: max(1, pz), Opts: opts}
}

// Name implements StokesBackend.
func (b *DistributedBackend) Name() string { return "distributed" }

// Ranks returns the world size.
func (b *DistributedBackend) Ranks() int { return b.Px * b.Py * b.Pz }

// LinearSolve implements StokesBackend.
func (b *DistributedBackend) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	// A wrapped operator (a tracing harness) hides its element kernel;
	// the ranks then apply the solver's own Picard operator, which the
	// nonlinear loop tolerates as an inexact linearization.
	op, ok := jop.(*stokes.Op)
	if !ok {
		op = s.Op
	}
	res, stats, err := s.LinearSolveDistributed(method, op, rhs, delta, prm, b.Px, b.Py, b.Pz, b.Opts)
	if err != nil && res.Err == nil {
		res.Err = err
	}
	if len(b.stats) != len(stats) {
		b.stats = make([]stokes.RankStats, len(stats))
		for i := range b.stats {
			b.stats[i].Rank = i
		}
	}
	for i := range stats {
		b.stats[i].Add(stats[i])
	}
	return res
}

// TakeCommStats implements CommStatsReporter.
func (b *DistributedBackend) TakeCommStats() []stokes.RankStats {
	out := b.stats
	b.stats = nil
	return out
}
