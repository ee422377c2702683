package main

import (
	"fmt"
	"time"

	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/stokes"
)

// table4 regenerates Table IV of the paper: the preconditioner shoot-out
// between the matrix-free geometric multigrid (GMG-i), the fully assembled
// Galerkin geometric multigrid (GMG-ii), and three purely algebraic
// smoothed-aggregation configurations (SA-i: GAMG-like; SAML-i: ML-like
// with drop tolerance; SAML-ii: ML-like with the stronger FGMRES(2)/ILU(0)
// smoother). For each configuration it reports Krylov iterations and the
// wall time spent in SpMV ("MatMult"), preconditioner setup,
// preconditioner application, and the complete Stokes solve; with
// -telemetry, each configuration's solve records under a scope of its
// name, so the table on stderr is the per-component breakdown behind the
// four columns (calls, wall time, time per call, per-level smoother and
// operator counts).
func table4(c *ctx) error {
	o := c.sinkerFlags("m", "deta")
	c.Register(c.fs, "workers", "telemetry", "cpuprofile")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()

	amg := func(config string) func(*stokes.Config) {
		return func(cfg *stokes.Config) {
			cfg.Levels = 1
			cfg.FineKind = op.Assembled
			cfg.AMGConfig = config
		}
	}
	configs := []struct {
		name string
		edit func(*stokes.Config)
	}{
		// Paper's preferred configuration: matrix-free tensor fine level,
		// rediscretized middle, Galerkin coarsest, GAMG coarse solve.
		{"GMG-i", func(cfg *stokes.Config) { cfg.FineKind, cfg.CoarseSolver = op.Tensor, "gamg" }},
		// Fully assembled: fine level assembled, all coarse operators
		// Galerkin.
		{"GMG-ii", func(cfg *stokes.Config) { cfg.FineKind, cfg.CoarseSolver = op.Galerkin, "gamg" }},
		{"SA-i", amg("gamg")},
		{"SAML-i", amg("ml")},
		{"SAML-ii", amg("mlstrong")},
	}

	out := c.stdout
	fmt.Fprintf(out, "# Table IV reproduction — %d³ elements, Δη=%g, %d workers\n", o.M, o.DeltaEta, c.Workers)
	fmt.Fprintf(out, "%-8s %5s %12s %12s %12s %12s\n",
		"config", "its", "MatMult(s)", "PCsetup(s)", "PCapply(s)", "Solve(s)")
	var gmgiTime float64
	for _, cf := range configs {
		s, bu, err := sinkerSolver(*o, c.Workers, func(cfg *stokes.Config) {
			cfg.Params.MaxIt = 1500
			cfg.Telemetry = c.reg.Root().Child(cf.name)
			cf.edit(cfg)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", cf.name, err)
		}
		start := time.Now()
		res := s.Solve(la.NewVec(s.Op.N()), bu, nil)
		solve := time.Since(start).Seconds()
		if !res.Converged {
			fmt.Fprintf(out, "%-8s FAILED after %d iterations (rel %.2e)\n", cf.name, res.Iterations, res.Residual/res.Residual0)
			continue
		}
		outer := s.Tel.Child("outer")
		fmt.Fprintf(out, "%-8s %5d %12.3f %12.3f %12.3f %12.3f\n",
			cf.name, res.Iterations,
			outer.Timer("matmult").Elapsed().Seconds(), s.SetupTime.Seconds(),
			outer.Timer("pcapply").Elapsed().Seconds(), solve)
		if cf.name == "GMG-i" {
			gmgiTime = solve
		} else if gmgiTime > 0 {
			fmt.Fprintf(out, "         (GMG-i is %.1fx faster)\n", solve/gmgiTime)
		}
	}
	fmt.Fprintln(out, "\n# Shape check (paper): GMG-ii lowest iterations; GMG-i fastest")
	fmt.Fprintln(out, "# time-to-solution (paper: 1.7x vs GMG-ii, 3.3-12.4x vs SA/SAML).")
	return nil
}
