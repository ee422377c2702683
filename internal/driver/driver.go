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
	"runtime"
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
	Op        string // fine-level operator representation
	Precision string // V-cycle precision ("f64"/"f32")
	Restart   int    // FGMRES restart window (stokes.Config.Params.Restart)
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
	if o.Precision != "" {
		pr, err := op.ParsePrecision(o.Precision)
		if err != nil {
			return err
		}
		cfg.Precision = pr
	}
	if o.Restart > 0 {
		cfg.Params.Restart = o.Restart
	}
	if _, _, err := op.Layout(cfg.Levels, cfg.FineKind, cfg.Precision); err != nil {
		return err
	}
	m.Cfg = cfg
	return nil
}

// Backend builds the Stokes backend for a -ranks flag value: "" or
// "1x1x1" selects the shared-memory path, anything else a
// DistributedBackend over the simulated fabric. A -coarse-roots value no
// layout of the world can hold is refused here, before any model work.
func Backend(ranks string, pipelined bool, coarseRoots int) (model.StokesBackend, error) {
	px, py, pz := 1, 1, 1
	if ranks != "" {
		var err error
		if px, py, pz, err = cli.ParseRanks(ranks); err != nil {
			return nil, err
		}
	}
	n := px * py * pz
	if coarseRoots < 0 || coarseRoots > n {
		return nil, fmt.Errorf("-coarse-roots %d: want 0 to %d, the rank count of -ranks %dx%dx%d", coarseRoots, n, px, py, pz)
	}
	if n == 1 {
		return model.SharedBackend{}, nil
	}
	return model.NewDistributedBackend(px, py, pz, stokes.DistOptions{
		Pipelined:   pipelined,
		CoarseRoots: coarseRoots,
	}), nil
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
	// JSONOut, when non-nil, receives the end-to-end StepRecord JSON
	// after the loop (ptatin-run -json).
	JSONOut io.Writer
	// Scenario labels the JSON record.
	Scenario string
}

// StepRecord is one step of the machine-readable run record.
type StepRecord struct {
	Step      int     `json:"step"`
	Dt        float64 `json:"dt"`
	NewtonIts int     `json:"newton_its"`
	KrylovIts int     `json:"krylov_its"`
	// KrylovBasis is the largest Krylov basis (n-vectors) an inner solve
	// of the step allocated.
	KrylovBasis int  `json:"krylov_basis"`
	Converged   bool `json:"converged"`
	// ResidualEvals counts the step's nonlinear residual evaluations, the
	// line-search trials included; LineSearchStagnated says the nonlinear
	// iteration stopped because a search found no reducing step.
	ResidualEvals       int     `json:"residual_evals"`
	LineSearchStagnated bool    `json:"line_search_stagnated"`
	Points              int     `json:"points"`
	WallS               float64 `json:"wall_s"`
	Backend             string  `json:"backend"`
	Ranks               int     `json:"ranks,omitempty"`
	HaloMsgs            int64   `json:"halo_msgs,omitempty"`
	HaloBytes           int64   `json:"halo_bytes,omitempty"`
	AllReduces          int64   `json:"allreduces,omitempty"`
	Retries             int64   `json:"retries,omitempty"`
	// Per-stage wall seconds of the step pipeline, and the count of
	// relinearizations that reused the cached Stokes setup.
	RheologyS         float64 `json:"rheology_s"`
	MPMProjectS       float64 `json:"mpm_project_s"`
	StokesSetupS      float64 `json:"stokes_setup_s"`
	StokesKrylovS     float64 `json:"stokes_krylov_s"`
	AdvectS           float64 `json:"advect_s"`
	ALES              float64 `json:"ale_s"`
	ThermalS          float64 `json:"thermal_s"`
	StokesSetupReused int64   `json:"stokes_setup_reused"`
	// CPUUtil is model.StepStats.CPUUtil: user CPU seconds over wall ×
	// cores, to within one garbage-collection cycle; absent when no cycle
	// ended inside the step, so nothing was measured.
	CPUUtil float64 `json:"cpu_util,omitempty"`
	// HelperShare is model.StepStats.HelperShare: the share of the step's
	// parallel-region items that pool workers, not the callers, ran.
	HelperShare float64 `json:"helper_share"`
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
	Kernel     string       `json:"kernel"`
	Steps      []StepRecord `json:"steps"`
	TotalWallS float64      `json:"total_wall_s"`
	AvgStepS   float64      `json:"avg_step_s"`
	// CPUUtil is the share of Workers (× Ranks) cores that ran user Go
	// code over the whole time loop — exact, the loop being bracketed by
	// two collections. Well under 1: serial sections or idle workers.
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
	var recs []StepRecord
	// The runtime's CPU accounting advances at collection cycles: run one
	// on either side of the loop so the run's utilization is of the loop.
	runtime.GC()
	cpuStart := telemetry.ReadCPU()
	items0, pooled0 := par.Counts()
	runStart := time.Now()
	for s := 0; s < cfg.Steps; s++ {
		stepStart := time.Now()
		if err := m.StepForward(); err != nil {
			return fmt.Errorf("step %d: %w", m.StepNum+1, err)
		}
		st := m.Stats[len(m.Stats)-1]
		wall := time.Since(stepStart).Seconds()
		cpu := "-" // no collection cycle ended inside the step: not measured
		if st.CPUUtil > 0 {
			cpu = fmt.Sprintf("%.2f", st.CPUUtil)
		}
		fmt.Fprintf(out, "%d, %.5f, %.5f, %d, %d, %.3e, %.3e, %v, %.4f, %.4f, %d, %s, %d, %.2f, %s, %d, %.2f\n",
			st.Step, st.Time, st.Dt, st.NewtonIts, st.KrylovIts,
			st.FNorm0, st.FNorm, st.Converged, st.TopoMin, st.TopoMax,
			st.PointCount, st.Backend, st.HaloMsgs, wall, cpu, st.KrylovBasis, st.HelperShare)
		recs = append(recs, StepRecord{
			Step: st.Step, Dt: st.Dt,
			NewtonIts: st.NewtonIts, KrylovIts: st.KrylovIts, KrylovBasis: st.KrylovBasis,
			Converged: st.Converged, Points: st.PointCount,
			ResidualEvals: st.ResidualEvals, LineSearchStagnated: st.LineSearchStagnated,
			WallS:   wall,
			Backend: st.Backend, Ranks: st.Ranks,
			HaloMsgs: st.HaloMsgs, HaloBytes: st.HaloBytes, AllReduces: st.AllReduces, Retries: st.Retries,
			RheologyS:         st.RheologyTime.Seconds(),
			MPMProjectS:       st.ProjectTime.Seconds(),
			StokesSetupS:      st.StokesSetupTime.Seconds(),
			StokesKrylovS:     st.StokesKrylovTime.Seconds(),
			AdvectS:           st.AdvectTime.Seconds(),
			ALES:              st.ALETime.Seconds(),
			ThermalS:          st.ThermalTime.Seconds(),
			StokesSetupReused: st.StokesSetupReused,
			CPUUtil:           st.CPUUtil,
			HelperShare:       st.HelperShare,
		})
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
	runtime.GC()
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
			Steps:      recs, TotalWallS: total,
			CPUUtil: cpuUtil, HelperShare: helperShare,
		}
		if len(recs) > 0 {
			rec.AvgStepS = total / float64(len(recs))
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
// backend at 2×1×1 — the check.sh scenario-smoke gate. A run that
// accepted a point location from an unconverged Newton iteration fails.
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
			m.Telemetry = telemetry.New().Root().Child("model")
			if mode == "distributed" {
				m.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
			}
			start := time.Now()
			if err := Run(m, Config{Steps: 2, Out: io.Discard}); err != nil {
				return fmt.Errorf("smoke %s (%s): %w", name, mode, err)
			}
			if n := m.Telemetry.Child("mpm").Counter("locate_unconverged").Value(); n != 0 {
				return fmt.Errorf("smoke %s (%s): %d point locations accepted from a Newton iteration that did not converge", name, mode, n)
			}
			st := m.Stats[len(m.Stats)-1]
			// No smoke run injects a fault, so a retransmission is a timeout
			// that fired on scheduling, not on loss.
			if n := m.Stats[0].Retries + st.Retries; n != 0 {
				return fmt.Errorf("smoke %s (%s): %d retransmission rounds on a fault-free fabric", name, mode, n)
			}
			fmt.Fprintf(out, "smoke %-16s %-11s ok: 2 steps, krylov_its=%d+%d, %.1fs\n",
				name, mode, m.Stats[0].KrylovIts, st.KrylovIts, time.Since(start).Seconds())
		}
	}
	return nil
}
