package stokes

import (
	"fmt"

	"ptatin3d/internal/fem"
)

// Context keeps one configured Solver alive across nonlinear
// relinearizations and time steps, so per-solve setup amortizes to a
// coefficient refresh (paper §III-A: relinearization updates the
// *coefficients*, never the discretization). Prepare returns a solver
// for the problem's current state: a cold build the first time or
// whenever the structural configuration changes (mesh resolution, level
// count, operator kinds, smoother degree, workers...), and an in-place
// Refresh — bit-identical to a cold build, at a fraction of the cost —
// otherwise. A Context is a cache and nothing more: a mesh move (ALE
// update, Restore) is read from the coordinates by the Refresh, which
// re-injects the coarse coordinates and takes the problem's Coupling as
// it is now.
//
// The zero value is ready to use. A Context is not safe for concurrent
// Prepare calls.
type Context struct {
	s   *Solver
	key string
}

// InvalidateGeometry does nothing: a mesh move needs no announcement.
// It is kept for the benchmark harness's replay until a benchmark change
// drops the call.
func (c *Context) InvalidateGeometry() {}

// Prepare returns a solver for prob's current coefficients and geometry,
// cold-building or refreshing as needed. The second result reports
// whether the cached setup was reused.
func (c *Context) Prepare(prob *fem.Problem, cfg Config) (*Solver, bool, error) {
	key := contextKey(prob, cfg)
	if c.s == nil || c.key != key {
		s, err := New(prob, cfg)
		if err != nil {
			return nil, false, err
		}
		c.s, c.key = s, key
		return s, false, nil
	}
	// Carry the per-relinearization pieces of the config into the cached
	// solver: the coefficient coarsener closes over the current vertex
	// fields, and the Krylov parameters may carry a per-iteration forcing
	// tolerance. Structural fields are pinned by the key.
	c.s.Cfg.CoeffCoarsen = cfg.CoeffCoarsen
	prm := cfg.Params
	if prm.Telemetry == nil {
		prm.Telemetry = c.s.Cfg.Params.Telemetry
	}
	c.s.Cfg.Params = prm
	if err := c.s.Refresh(); err != nil {
		return nil, false, err
	}
	return c.s, true, nil
}

// contextKey fingerprints the structural solver configuration: any field
// that shapes topology, sparsity or operator kinds.
// The coefficient coarsener (a closure), the Krylov parameters and the
// telemetry scope are deliberately excluded — Prepare carries them into
// the cached solver (TestContextKeyCoversConfig pins the split).
func contextKey(prob *fem.Problem, cfg Config) string {
	da := prob.DA
	return fmt.Sprintf("%p;%dx%dx%d;lv=%d;fk=%v;ss=%d;cs=%s;amg=%s;om=%s;w=%d;va=%d",
		prob, da.Mx, da.My, da.Mz, cfg.Levels, cfg.FineKind,
		cfg.SmoothSteps, cfg.CoarseSolver, cfg.AMGConfig,
		cfg.OuterMethod, cfg.Workers, cfg.VerticalAxis)
}
