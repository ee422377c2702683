// Package driver is the engine behind ptatin-run: apply the CLI solver
// overrides to a compiled model, select the Stokes backend (shared-memory
// or rank-distributed), run the time loop with per-step reporting,
// checkpoint/restart, and optionally emit a machine-readable end-to-end
// step-time record. ptatin-run is a thin flag layer over this package;
// ptatin-tables' fig3 steps the rift through the same loop.
package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/model"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// Overrides are the CLI-level solver substitutions applied on top of a
// compiled model (empty/zero values leave the spec's choice in place).
type Overrides struct {
	Op      string // fine-level operator representation
	Restart int    // FGMRES restart window (stokes.Config.Params.Restart)
}

// Apply sets the overrides on the model's solver configuration, or leaves
// it as it was and returns why not: a value that does not parse, or a fine
// kind op.Layout refuses — before any solve.
func (o Overrides) Apply(m *model.Model) error {
	cfg := m.Cfg
	if o.Op != "" {
		k, err := op.ParseKind(o.Op)
		if err != nil {
			return err
		}
		cfg.FineKind = k
	}
	if o.Restart > 0 {
		cfg.Params.Restart = o.Restart
	}
	if _, _, err := op.Layout(cfg.Levels, cfg.FineKind); err != nil {
		return err
	}
	m.Cfg = cfg
	return nil
}

// Backend builds the Stokes backend for a -ranks flag value: "" or
// "1x1x1" selects the shared-memory path, anything else a
// DistributedBackend over the simulated fabric.
func Backend(ranks string) (model.StokesBackend, error) {
	px, py, pz := 1, 1, 1
	if ranks != "" {
		var err error
		if px, py, pz, err = cli.ParseRanks(ranks); err != nil {
			return nil, err
		}
	}
	if px*py*pz == 1 {
		return model.SharedBackend{}, nil
	}
	return model.NewDistributedBackend(px, py, pz, stokes.DistOptions{}), nil
}

// Config controls one Run.
type Config struct {
	Steps           int
	CheckpointEvery int
	CheckpointPath  string
	RestartFrom     string
	// Out receives the per-step CSV (default os.Stdout; io.Discard
	// silences it).
	Out io.Writer
	// JSONOut, when non-nil, receives the end-to-end RunRecord JSON
	// after the loop (ptatin-run -json).
	JSONOut io.Writer
	// Scenario labels the JSON record.
	Scenario string
}

// RunRecord is the end-to-end JSON emitted on JSONOut.
type RunRecord struct {
	Scenario   string `json:"scenario"`
	Backend    string `json:"backend"`
	Ranks      int    `json:"ranks,omitempty"`
	Workers    int    `json:"workers"`
	Resolution [3]int `json:"resolution"`
	// Hierarchy is the multigrid hierarchy the last Stokes solve ran:
	// per level the operator kind, the smoother and its degree.
	Hierarchy []mg.LevelInfo `json:"hierarchy,omitempty"`
	// Kernel is the encoding the float64 element kernel ran in on this
	// host (fem.KernelName): "avx2" or "go".
	Kernel     string            `json:"kernel"`
	Steps      []model.StepStats `json:"steps"`
	TotalWallS float64           `json:"total_wall_s"`
	AvgStepS   float64           `json:"avg_step_s"`
	// CPUUtil is the share of Workers (× Ranks) cores that the process
	// kept busy in user mode over the whole time loop. Well under 1:
	// serial sections or idle workers.
	CPUUtil float64 `json:"cpu_util"`
	// HelperShare is the same share as the steps', over the whole loop:
	// near (Workers-1)/Workers when the workers split the parallel
	// regions evenly, near 0 when the callers ran them alone — whatever
	// CPUUtil reads.
	HelperShare float64 `json:"helper_share"`
}

// Run advances the model Config.Steps steps with per-step reporting,
// periodic checkpointing and optional restart. The model's Backend must
// already be installed.
func Run(m *model.Model, cfg Config) error {
	out := cfg.Out
	if out == nil {
		out = os.Stdout
	}
	if cfg.RestartFrom != "" {
		if err := m.LoadCheckpoint(cfg.RestartFrom); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		fmt.Fprintf(out, "# restarted from %s at step %d, t=%.5f\n", cfg.RestartFrom, m.StepNum, m.Time)
	}
	ranks := 0
	if db, ok := m.Backend.(*model.DistributedBackend); ok {
		ranks = db.Ranks()
	}
	fmt.Fprintln(out, "# columns: step, time, dt, newton_its, krylov_its, |F|0, |F|, converged, topo_min, topo_max, points, backend, halo_msgs, wall_s, cpu_util, krylov_basis, helper_share")
	cpuStart := telemetry.ReadCPU()
	items0, pooled0 := par.Counts()
	runStart := time.Now()
	first := len(m.Stats) // the record holds the steps of this run
	for s := 0; s < cfg.Steps; s++ {
		if err := m.StepForward(); err != nil {
			return fmt.Errorf("step %d: %w", m.StepNum+1, err)
		}
		st := m.Stats[len(m.Stats)-1]
		cpu := "-" // no CPU-time reading on this platform
		if st.CPUUtil > 0 {
			cpu = fmt.Sprintf("%.2f", st.CPUUtil)
		}
		fmt.Fprintf(out, "%d, %.5f, %.5f, %d, %d, %.3e, %.3e, %v, %.4f, %.4f, %d, %s, %d, %.2f, %s, %d, %.2f\n",
			st.Step, st.Time, st.Dt, st.NewtonIts, st.KrylovIts,
			st.FNorm0, st.FNorm, st.Converged, st.TopoMin, st.TopoMax,
			st.PointCount, st.Backend, st.HaloMsgs, st.WallS, cpu, st.KrylovBasis, st.HelperShare)
		if cfg.CheckpointEvery > 0 && m.StepNum%cfg.CheckpointEvery == 0 {
			path := cfg.CheckpointPath
			if path == "" {
				path = "ptatin.chkpt"
			}
			if err := m.SaveCheckpoint(path); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			fmt.Fprintf(out, "# checkpointed step %d to %s\n", m.StepNum, path)
		}
	}
	total := time.Since(runStart).Seconds()
	cores := max(1, m.Workers) * max(1, ranks)
	cpuUtil := telemetry.ReadCPU().Utilization(cpuStart, cores)
	fmt.Fprintf(out, "# cpu_util: %.2f of %d cores over %d steps\n", cpuUtil, cores, cfg.Steps)
	helperShare := par.HelperShare(items0, pooled0)
	fmt.Fprintf(out, "# helper_share: %.2f of the parallel regions' items ran on pool workers\n", helperShare)
	var hierarchy []mg.LevelInfo
	if m.LastStokes != nil && m.LastStokes.MG != nil {
		hierarchy = m.LastStokes.MG.Describe()
		for _, li := range hierarchy {
			fmt.Fprintf(out, "# hierarchy: %s\n", li)
		}
	}
	fmt.Fprintf(out, "# kernel: %s\n", fem.KernelName())
	if cfg.JSONOut != nil {
		rec := RunRecord{
			Scenario: cfg.Scenario, Backend: m.Backend.Name(), Ranks: ranks,
			Workers:    m.Workers,
			Resolution: [3]int{m.Prob.DA.Mx, m.Prob.DA.My, m.Prob.DA.Mz},
			Hierarchy:  hierarchy,
			Kernel:     fem.KernelName(),
			Steps:      m.Stats[first:], TotalWallS: total,
			CPUUtil: cpuUtil, HelperShare: helperShare,
		}
		if n := len(rec.Steps); n > 0 {
			rec.AvgStepS = total / float64(n)
		}
		enc := json.NewEncoder(cfg.JSONOut)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Smoke compiles every registered scenario at its small resolution and
// runs it for two steps on the shared backend and (when the small
// resolution admits the rank grid on every level) on the distributed
// backend at 2×1×1 — the check.sh scenario-smoke gate. A run fails when
// a step's point count is not the previous one less the points it removed
// plus those it injected, or when an element ends a step with fewer points
// than a spec's population control keeps.
// Progress goes to out, under a "# kernel:" header; the first failure is
// returned.
func Smoke(workers int, out io.Writer) error {
	if out == nil {
		out = os.Stdout
	}
	fmt.Fprintf(out, "# kernel: %s\n", fem.KernelName())
	for _, name := range scenario.Names() {
		spec, err := scenario.Get(name)
		if err != nil {
			return err
		}
		spec.Resolution = spec.SmallResolution()
		for _, mode := range []string{"shared", "distributed"} {
			m, err := scenario.Compile(spec, workers)
			if err != nil {
				return fmt.Errorf("smoke %s: compile: %w", name, err)
			}
			if mode == "distributed" {
				m.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
			}
			start := time.Now()
			count := m.Points.Len()
			if err := Run(m, Config{Steps: 2, Out: io.Discard}); err != nil {
				return fmt.Errorf("smoke %s (%s): %w", name, mode, err)
			}
			for _, st := range m.Stats {
				if st.PointCount != count-st.PointsRemoved+st.PointsInjected || st.PPEMin < m.MinPointsPerElement {
					return fmt.Errorf("smoke %s (%s): step %d ends with %d points (%d before, %d removed, %d injected), %d in its emptiest element (population floor %d)",
						name, mode, st.Step, st.PointCount, count, st.PointsRemoved, st.PointsInjected, st.PPEMin, m.MinPointsPerElement)
				}
				count = st.PointCount
			}
			st := m.Stats[len(m.Stats)-1]
			fmt.Fprintf(out, "smoke %-16s %-11s ok: 2 steps, krylov_its=%d+%d, %.1fs\n",
				name, mode, m.Stats[0].KrylovIts, st.KrylovIts, time.Since(start).Seconds())
		}
	}
	return nil
}
