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
// count, operator kinds, precision, workers...), and an in-place
// Refresh — bit-identical to a cold build, at a fraction of the cost —
// otherwise. ALE coordinate updates must be announced through
// InvalidateGeometry; they trigger the geometry-dependent refresh work
// (coarse-coordinate re-injection, coupling re-setup) without a rebuild.
//
// The zero value is ready to use. A Context is not safe for concurrent
// Prepare calls.
type Context struct {
	s         *Solver
	key       string
	geomDirty bool

	// Reused counts the Prepare calls served by a refresh instead of a
	// cold build (the stokes_setup_reused run-record counter).
	Reused int64
}

// InvalidateGeometry marks the fine mesh coordinates as moved since the
// last Prepare (ALE remeshing, free-surface update). The next Prepare
// re-derives everything geometry-dependent.
func (c *Context) InvalidateGeometry() { c.geomDirty = true }

// Coupling returns gradient/divergence blocks for prob's mesh as it is
// now: the cached solver's own — an announced mesh move is taken up here
// rather than at the next Prepare — so that a residual evaluated before
// the first relinearisation of a step shares them with the solves after
// it. Without a cached solver for prob the blocks are built for the
// caller alone.
func (c *Context) Coupling(prob *fem.Problem) *fem.Coupling {
	if c.s == nil || c.s.Prob != prob {
		return fem.NewCoupling(prob)
	}
	if c.geomDirty {
		c.s.refreshGeometry()
		c.geomDirty = false
	}
	return c.s.C
}

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
		c.s, c.key, c.geomDirty = s, key, false
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
	if err := c.s.Refresh(c.geomDirty); err != nil {
		return nil, false, err
	}
	c.geomDirty = false
	c.Reused++
	return c.s, true, nil
}

// contextKey fingerprints the structural solver configuration: any field
// that shapes topology, sparsity, operator kinds, or arithmetic width.
// The coefficient coarsener (a closure), the Krylov parameters and the
// telemetry scope are deliberately excluded — Prepare carries them into
// the cached solver (TestContextKeyCoversConfig pins the split).
func contextKey(prob *fem.Problem, cfg Config) string {
	da := prob.DA
	return fmt.Sprintf("%p;%dx%dx%d;lv=%d;fk=%v;pr=%v;ss=%d;cs=%s;amg=%s;om=%s;w=%d;va=%d",
		prob, da.Mx, da.My, da.Mz, cfg.Levels, cfg.FineKind,
		cfg.Precision, cfg.SmoothSteps, cfg.CoarseSolver, cfg.AMGConfig,
		cfg.OuterMethod, cfg.Workers, cfg.VerticalAxis)
}
