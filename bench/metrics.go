package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// schemaVersion names the record layout; bump it when a metric is
// renamed, removed or redefined.
const schemaVersion = "ptatin-bench/1"

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the time loop sees; BENCHMARK.json
// carries the same names with their bounds. Lower is better for all.
var endToEndMetrics = []metricDef{
	{"run_s", "s"},
	{"step_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the traced run's single-layer numbers, grouped by
// the package they measure. A metric that does not apply to a workload
// (comm.* on a shared backend, op.* without kernel replays, spans the
// distributed backend hides) is reported as 0.
var perLayerMetrics = []metricDef{
	{"scenario.compile_s", "s"},

	{"model.step_self_s", "s"},
	{"model.update_coeff_ms", "ms"},
	{"model.alloc_mb_per_step", "MB"},
	{"model.unattributed_frac", "frac"},

	{"mpm.project_cold_ms", "ms"},
	{"mpm.project_warm_ms", "ms"},
	{"mpm.advect_ms", "ms"},
	{"mpm.advect_mpts_s", "Mpts/s"},
	{"mpm.locate_all_ms", "ms"},
	{"mpm.popctl_ms", "ms"},
	{"mpm.points", "count"},
	{"mpm.points_per_el_min", "count"},

	{"stokes.setup_cold_ms", "ms"},
	{"stokes.setup_refresh_ms", "ms"},
	{"stokes.setup_refresh_geom_ms", "ms"},
	{"stokes.solves_per_step", "1/step"},
	{"stokes.matvec_ms", "ms"},
	{"stokes.matvec_calls", "count"},
	{"stokes.pc_apply_ms", "ms"},
	{"stokes.pc_apply_calls", "count"},
	{"stokes.schur_ms", "ms"},
	{"stokes.coupling_d_ms", "ms"},
	{"stokes.coupling_g_ms", "ms"},
	{"stokes.pc_unattributed_frac", "frac"},

	{"krylov.its", "count"},
	{"krylov.solve_s", "s"},
	{"krylov.ms_per_it", "ms"},
	{"krylov.self_ms_per_it", "ms"},
	{"krylov.self_frac", "frac"},
	{"krylov.unconverged_solves", "count"},
	{"krylov.final_rel_res_max", "ratio"},
	{"nonlinear.its", "count"},
	{"nonlinear.unconverged_steps", "count"},

	{"mg.vcycle_ms", "ms"},
	{"mg.smooth_ms.l0", "ms"},
	{"mg.smooth_ms.l1", "ms"},
	{"mg.op_apply_ms.l0", "ms"},
	{"mg.op_apply_ms.l1", "ms"},
	{"mg.restrict_ms.l0", "ms"},
	{"mg.restrict_ms.l1", "ms"},
	{"mg.prolong_ms.l0", "ms"},
	{"mg.prolong_ms.l1", "ms"},
	{"mg.coarse_solve_ms", "ms"},
	{"mg.vcycle_unattributed_frac", "frac"},
	{"amg.setup_ms", "ms"},

	{"op.apply_ms.mf", "ms"},
	{"op.apply_ms.mfc", "ms"},
	{"op.apply_ms.mf32", "ms"},
	{"op.apply_ms.asm", "ms"},
	{"op.mdof_s.mf", "MDoF/s"},
	{"op.mdof_s.mfc", "MDoF/s"},
	{"op.mdof_s.mf32", "MDoF/s"},
	{"op.mdof_s.asm", "MDoF/s"},
	{"op.roofline_frac.mf", "frac"},
	{"op.roofline_frac.mfc", "frac"},
	{"op.roofline_frac.mf32", "frac"},
	{"op.roofline_frac.asm", "frac"},
	{"op.par_eff.mf", "frac"},
	{"op.par_eff.mfc", "frac"},
	{"op.par_eff.mf32", "frac"},
	{"op.par_eff.asm", "frac"},
	{"op.setup_ms.mf", "ms"},
	{"op.setup_ms.mfc", "ms"},
	{"op.setup_ms.mf32", "ms"},
	{"op.setup_ms.asm", "ms"},
	{"op.bytes_per_dof_computed.mf", "B/DoF"},
	{"op.bytes_per_dof_computed.mfc", "B/DoF"},
	{"op.bytes_per_dof_computed.mf32", "B/DoF"},
	{"op.bytes_per_dof_computed.asm", "B/DoF"},
	{"la.spmv_gbs", "GB/s"},
	{"la.spmv_bw_frac", "frac"},

	{"comm.halo_msgs_per_it", "1/it"},
	{"comm.halo_mb_per_step", "MB/step"},
	{"comm.allreduces_per_it", "1/it"},
	{"comm.retries", "count"},

	{"thermal.step_ms", "ms"},
	{"chkpt.save_ms", "ms"},
	{"chkpt.load_ms", "ms"},
	{"chkpt.mb", "MB"},
	{"par.dispatch_us", "us"},
	{"trace.overhead_frac", "frac"},
	{"host.slowdown", "ratio"},
}

// opKinds are the operator representations the kernel replays build, by
// op.ParseKind name.
var opKinds = []string{"mf", "mfc", "mf32", "asm"}

// metricSet collects measured values by metric name.
type metricSet map[string]float64

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints: the driver's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report lays the measured set out against defs: every defined metric
// is present (0 when not measured on this workload), and a measured
// name that is not defined is a harness bug.
func (ms metricSet) report(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := ms[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	for name := range ms {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not defined", name)
		}
	}
	return out, nil
}

// printMetrics lists every metric by name with its unit, in table order.
func printMetrics(defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.name, vals[d.name].Value, d.unit)
	}
}

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (manifest, error) {
	var mf manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return mf, err
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return mf, fmt.Errorf("%s: %w", path, err)
	}
	return mf, nil
}
