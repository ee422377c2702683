package main

import (
	"fmt"
	"path/filepath"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/driver"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// compile builds the model of spec at the run's width with the -op
// override applied, recording under the run's registry.
func (c *ctx) compile(spec scenario.Spec) (*model.Model, error) {
	m, err := scenario.Compile(spec, c.Workers)
	if err != nil {
		return nil, err
	}
	if err := (driver.Overrides{Op: c.Op}).Apply(m); err != nil {
		return nil, err
	}
	m.Telemetry = c.reg.Root().Child("model")
	return m, nil
}

// fig1 solves the §IV-A sinker once (from a checkpointed state with
// -restart-from) and writes the Figure 1 visualization: fig1_grid.vtk,
// fig1_points.vtk, fig1_streamlines.vtk.
func fig1(c *ctx) error {
	o := c.sinkerFlags("m", "nc", "rc")
	outdir := c.outdirFlag()
	c.Register(c.fs, "workers", "op", "restart-from", "telemetry", "cpuprofile")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()

	m, err := c.compile(scenario.Sinker(*o))
	if err != nil {
		return err
	}
	if c.RestartFrom != "" {
		if err := m.LoadCheckpoint(c.RestartFrom); err != nil {
			return err
		}
	}
	if _, err := m.SolveStokes(); err != nil {
		return err
	}
	var seeds [][3]float64
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			seeds = append(seeds, [3]float64{0.1 + 0.2*float64(i), 0.1 + 0.2*float64(j), 0.9})
		}
	}
	if err := writeGridAndPoints(m, *outdir, "fig1"); err != nil {
		return err
	}
	if err := m.WriteStreamlinesVTK(filepath.Join(*outdir, "fig1_streamlines.vtk"), seeds, 0.02, 400); err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, "wrote fig1_grid.vtk, fig1_points.vtk, fig1_streamlines.vtk")
	return nil
}

// writeGridAndPoints writes <fig>_grid.vtk and <fig>_points.vtk to dir.
func writeGridAndPoints(m *model.Model, dir, fig string) error {
	if err := m.WriteVTK(filepath.Join(dir, fig+"_grid.vtk")); err != nil {
		return err
	}
	return m.WritePointsVTK(filepath.Join(dir, fig+"_points.vtk"))
}

// fig2 reproduces Figure 2, residual equilibration and convergence as a
// function of the viscosity contrast: for each Δη it solves the sinker's
// Stokes problem with GCR + the lower-triangular field-split
// preconditioner and prints the per-iteration momentum, vertical-momentum
// and pressure residual norms as CSV on stdout (a summary line per Δη on
// stderr).
func fig2(c *ctx) error {
	o := c.sinkerFlags("m", "nc", "rc")
	c.Register(c.fs, "workers", "op", "telemetry", "cpuprofile")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()

	fmt.Fprintln(c.stdout, "# Figure 2 reproduction: vertical momentum vs pressure residual")
	fmt.Fprintln(c.stdout, "# columns: delta_eta, iteration, momentum_resid, vertical_resid, pressure_resid")
	for _, deta := range []float64{1, 1e2, 1e4} {
		o.DeltaEta = deta
		m, err := c.compile(scenario.Sinker(*o))
		if err != nil {
			return err
		}
		s, bu, err := m.LinearStokes(func(cfg *stokes.Config) {
			cfg.Params.MaxIt = 1000
			cfg.Telemetry = c.reg.Root().Child(fmt.Sprintf("deta%g", deta))
		})
		if err != nil {
			return err
		}
		mon := &stokes.Monitor{}
		res := s.Solve(la.NewVec(s.Op.N()), bu, mon)
		for i := range mon.Iter {
			fmt.Fprintf(c.stdout, "%g, %d, %.6e, %.6e, %.6e\n",
				deta, mon.Iter[i], mon.Momentum[i], mon.Vertical[i], mon.Pressure[i])
		}
		fmt.Fprintf(c.stderr, "delta_eta=%g: converged=%v iterations=%d rel=%.2e\n",
			deta, res.Converged, res.Iterations, res.Residual/res.Residual0)
	}
	return nil
}

// fig3 steps the §V continental rifting model — printing the per-step
// nonlinear solver behaviour of Figure 4 — and writes the Figure 3
// visualization (lithology + damage zone) as fig3_grid.vtk and
// fig3_points.vtk. -weak is the lower-crust viscosity (nondimensional;
// weak ≈ 0.01–0.05 favours wide/oblique margins, strong ≈ 0.5 favours
// ridge jumps — the paper's §V conclusion); -oblique applies boundary
// condition (ii), 0.1 cm/yr z-shortening. -restart-from FILE -steps 0
// snapshots a state ptatin-run checkpointed.
func fig3(c *ctx) error {
	o := scenario.DefaultRiftOptions()
	c.fs.Float64Var(&o.WeakCrustEta, "weak", o.WeakCrustEta, "lower-crust viscosity (nondim)")
	oblique := c.fs.Bool("oblique", false, "apply z-shortening (BC variant ii)")
	outdir := c.outdirFlag()
	c.Register(c.fs, "workers", "op", "steps", "res", "restart-from")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()

	if c.Res != "" {
		res, err := cli.ParseRes(c.Res)
		if err != nil {
			return err
		}
		o.Mx, o.My, o.Mz = res[0], res[1], res[2]
	}
	if *oblique {
		o.ObliqueShortening = 0.1
	}
	m, err := c.compile(scenario.Rift(o))
	if err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, "# Figure 4 reproduction: nonlinear solver behaviour per time step")
	if err := driver.Run(m, driver.Config{
		Steps: c.Steps, RestartFrom: c.RestartFrom, Scenario: "rift", Out: c.stdout,
	}); err != nil {
		return err
	}
	if err := writeGridAndPoints(m, *outdir, "fig3"); err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, "# wrote fig3_grid.vtk, fig3_points.vtk")
	return nil
}
