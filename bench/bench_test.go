package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

const manifestFile = "../BENCHMARK.json"

func quickOptions(traced bool, traceOut string) runOptions {
	return runOptions{seed: defaultSeed, seconds: defaultSeconds, traced: traced, reps: 3, traceOut: traceOut}
}

func mustRunQuick(t *testing.T, o runOptions) result {
	t.Helper()
	w, err := findWorkload("quick")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
		t.Fatalf("quick workload: correct=%v attempted=%d failed=%d, want true 2 0", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestManifestMatchesHarness pins BENCHMARK.json to the harness's own
// tables: every metric the harness reports is declared there with the
// same unit, and every workload with the same reason.
func TestManifestMatchesHarness(t *testing.T) {
	mf, err := loadManifest(manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", mf.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, declared []manifestMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: manifest declares %d metrics, harness reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: manifest %s (%s), harness %s (%s)", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", kind, d.name)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEndMetrics)
	check("per_layer", mf.PerLayer, perLayerMetrics)
	for _, m := range mf.EndToEnd {
		if m.Better != "lower" || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end %s: better=%q bound=%g", m.Name, m.Better, m.Bound)
		}
	}
	var listed []workload
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(mf.Workloads) != len(listed) {
		t.Fatalf("manifest lists %d workloads, harness %d", len(mf.Workloads), len(listed))
	}
	for i, w := range listed {
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), harness %q (%q)", i, mf.Workloads[i].Name, mf.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestQuickUntraced runs the quick workload with tracing off and checks
// the end-to-end result line.
func TestQuickUntraced(t *testing.T) {
	res := mustRunQuick(t, quickOptions(false, ""))
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Fatalf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if v := res.Metrics[d.name]; !(v.Value > 0) || v.Unit != d.unit {
			t.Errorf("%s = %g %s, want a positive value in %s", d.name, v.Value, v.Unit, d.unit)
		}
	}
}

// TestQuickTraced runs the quick workload traced, twice: the spans nest
// with non-negative self times, the reconciliation fractions are the
// ones their named metrics give, and the same seed gives the same
// iteration counts.
func TestQuickTraced(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "spans.json")
	res := mustRunQuick(t, quickOptions(true, traceOut))
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Fatalf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	get := func(name string) float64 {
		v, ok := res.Metrics[name]
		if !ok {
			t.Fatalf("traced run does not report %s", name)
		}
		return v.Value
	}

	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != schemaVersion || len(doc.Spans) == 0 {
		t.Fatalf("trace file: schema %q, %d spans", doc.Schema, len(doc.Spans))
	}
	parentOf := map[string]string{spanStep: "", spanSolve: spanStep, spanMatvec: spanSolve, spanPC: spanSolve}
	tr := &tracer{spans: doc.Spans}
	for i, s := range doc.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		want, known := parentOf[s.Name]
		if !known {
			t.Fatalf("span %d has unknown name %q", i, s.Name)
		}
		if s.Parent < 0 {
			if want != "" {
				t.Fatalf("span %d (%s) has no parent, want %s", i, s.Name, want)
			}
			continue
		}
		p := doc.Spans[s.Parent]
		if p.Name != want || s.Start < p.Start || s.End > p.End || s.Step != p.Step {
			t.Fatalf("span %d (%s, step %d, %d..%d) does not nest in its parent %s (step %d, %d..%d)",
				i, s.Name, s.Step, s.Start, s.End, p.Name, p.Step, p.Start, p.End)
		}
	}
	tot := tr.totals()
	for name, self := range tot.self {
		if self < 0 {
			t.Errorf("self time of %s is negative: %v", name, self)
		}
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %.12g, recomputed %.12g", what, got, want)
		}
	}
	// krylov.solve + model.step_self_s is model.step by construction.
	near("krylov.solve_s + model.step_self_s", get("krylov.solve_s")+get("model.step_self_s"), tot.total[spanStep].Seconds())
	near("krylov.self_ms_per_it", get("krylov.self_ms_per_it"),
		1e3*(tot.total[spanSolve]-tot.total[spanMatvec]-tot.total[spanPC]).Seconds()/get("krylov.its"))
	near("stokes.pc_apply_calls", get("stokes.pc_apply_calls"), float64(tot.calls[spanPC]))

	// Each fraction from the metrics it claims to be made of.
	near("stokes.pc_unattributed_frac", get("stokes.pc_unattributed_frac"),
		1-(get("mg.vcycle_ms")+get("stokes.schur_ms")+get("stokes.coupling_d_ms"))/get("stokes.pc_apply_ms"))
	parts := get("mg.coarse_solve_ms")
	for _, l := range []string{".l0", ".l1"} {
		parts += get("mg.smooth_ms"+l) + get("mg.op_apply_ms"+l) + get("mg.restrict_ms"+l) + get("mg.prolong_ms"+l)
	}
	near("mg.vcycle_unattributed_frac", get("mg.vcycle_unattributed_frac"), 1-parts/get("mg.vcycle_ms"))
	k := get("stokes.solves_per_step")
	covered := (1+2*k)*get("model.update_coeff_ms") + (k-1)*get("stokes.setup_refresh_ms") + get("stokes.setup_refresh_geom_ms") +
		get("mpm.advect_ms") + get("mpm.locate_all_ms") + get("mpm.popctl_ms") + get("thermal.step_ms")
	near("model.unattributed_frac", get("model.unattributed_frac"), 1-covered/(1e3*get("model.step_self_s")))

	again := mustRunQuick(t, quickOptions(true, ""))
	for _, name := range []string{"krylov.its", "nonlinear.its", "mpm.points", "stokes.matvec_calls"} {
		if a, b := get(name), again.Metrics[name].Value; a != b {
			t.Errorf("%s: %g then %g at the same seed", name, a, b)
		}
	}
}

// TestSeedChangesOnlyTheSpec checks that the seed reaches the program
// through the generated spec alone: two seeds give specs that differ in
// the seeded primitives (sphere centres or the damage seed) and in
// nothing else, and a workload without random input gives the same spec
// at every seed.
func TestSeedChangesOnlyTheSpec(t *testing.T) {
	for _, w := range workloads {
		a, err := w.spec(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.spec(defaultSeed + 7)
		if err != nil {
			t.Fatal(err)
		}
		same := reflect.DeepEqual(a, b)
		if w.seeded == "" {
			if !same {
				t.Errorf("%s has no random input, but its spec depends on the seed", w.name)
			}
			continue
		}
		if same {
			t.Errorf("%s: a different seed generated the same spec", w.name)
		}
		if len(a.Geometry) != len(b.Geometry) {
			t.Fatalf("%s: %d primitives at one seed, %d at another", w.name, len(a.Geometry), len(b.Geometry))
		}
		for i := range b.Geometry {
			b.Geometry[i].Seed = a.Geometry[i].Seed
			b.Geometry[i].Center = a.Geometry[i].Center
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the seed changed more than sphere centres and the damage seed", w.name)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	if got, want := spread(v), (5.25-1.75)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{2}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

// TestCompareVerdicts drives -compare with synthetic records: a median
// 40% worse regresses, noise wider than the bound is unresolved, and an
// unchanged record is ok.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS []float64) string {
		rec := record{Schema: schemaVersion}
		for _, w := range workloads {
			if !w.listed {
				continue
			}
			wr := workloadRecord{Name: w.name, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
			for _, d := range endToEndMetrics {
				wr.EndToEnd[d.name] = series{Unit: d.unit, Values: []float64{10, 10.1, 9.9, 10}}
			}
			wr.EndToEnd["run_s"] = series{Unit: "s", Values: runS}
			rec.Workloads = append(rec.Workloads, wr)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{10, 10.1, 9.9, 10})
	if err := compareRecords(base, base, manifestFile); err != nil {
		t.Errorf("a record against itself: %v", err)
	}
	slower := write("slower.json", []float64{14, 14.1, 13.9, 14})
	if err := compareRecords(base, slower, manifestFile); err == nil {
		t.Error("a 40% slower run_s did not regress")
	}
	if err := compareRecords(slower, base, manifestFile); err != nil {
		t.Errorf("a faster run_s regressed: %v", err)
	}
	noisy := write("noisy.json", []float64{9, 19, 8, 20})
	if err := compareRecords(base, noisy, manifestFile); err != nil {
		t.Errorf("a spread wider than the bound should be unresolved, not regressed: %v", err)
	}
}

// TestHostClock checks the host-speed sampler: an interval long enough
// holds samples, one too short gets a sample of its own, the slowdown is
// a positive ratio either way, and close may be called twice.
func TestHostClock(t *testing.T) {
	c := startHostClock()
	start := time.Now()
	time.Sleep(4 * clockPeriod)
	if n, _, _ := c.summary(); n < 2 {
		t.Errorf("%d samples in %v, want at least 2", n, 4*clockPeriod)
	}
	if s := c.slowdown(start, time.Now()); !(s > 0.1 && s < 100) {
		t.Errorf("slowdown over a sampled interval = %g", s)
	}
	now := time.Now()
	before, _, _ := c.summary()
	if s := c.slowdown(now, now); !(s > 0.1 && s < 100) {
		t.Errorf("slowdown over an empty interval = %g", s)
	}
	if after, _, _ := c.summary(); after <= before {
		t.Errorf("an empty interval took no sample of its own (%d then %d)", before, after)
	}
	c.close()
	c.close()
	if l := (lap{wall: 3, slowdown: 1.5}); l.atRef() != 2 {
		t.Errorf("3 s at slowdown 1.5 is %g s at the reference speed, want 2", l.atRef())
	}
}
