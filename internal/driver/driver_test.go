package driver

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/op"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

func smallSinker(t *testing.T, workers int) *model.Model {
	t.Helper()
	spec, err := scenario.Get("sinker")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, workers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOverridesApply: flag-level substitutions land on the compiled
// model's solver config, and bad values are rejected.
func TestOverridesApply(t *testing.T) {
	m := smallSinker(t, 1)
	ov := Overrides{Op: "asm", Restart: 123}
	if err := ov.Apply(m); err != nil {
		t.Fatal(err)
	}
	if m.Cfg.FineKind != op.Assembled || m.Cfg.Params.Restart != 123 {
		t.Fatalf("overrides not applied: %+v", m.Cfg)
	}
	if err := (Overrides{Op: "nope"}).Apply(m); err == nil {
		t.Fatal("bad -op value accepted")
	}
	// The run-time selector is gone, and the kernel study's
	// single-precision kind is not a fine kind: both are refused here,
	// before any solve, with a message saying why.
	for opFlag, want := range map[string]string{
		"auto": "selector \"auto\" was removed",
		"mf32": "single-precision kernel of the kernel study",
	} {
		before := m.Cfg
		err := (Overrides{Op: opFlag}).Apply(m)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-op %s: got %v, want an error containing %q", opFlag, err, want)
		}
		if m.Cfg.FineKind != before.FineKind {
			t.Errorf("-op %s: a refused override changed the configuration", opFlag)
		}
	}
}

// TestBackendSelection: the -ranks flag maps to the right backend.
func TestBackendSelection(t *testing.T) {
	if b, err := Backend(""); err != nil || b != (model.SharedBackend{}) {
		t.Fatalf("empty ranks: backend %v err %v, want shared", b, err)
	}
	if b, err := Backend("1x1x1"); err != nil || b != (model.SharedBackend{}) {
		t.Fatalf("1x1x1: backend %v err %v, want shared", b, err)
	}
	b, err := Backend("2x1x2")
	if err != nil {
		t.Fatal(err)
	}
	db, ok := b.(*model.DistributedBackend)
	if !ok || db.Ranks() != 4 {
		t.Fatalf("2x1x2: got %T with %d ranks", b, db.Ranks())
	}
	if _, err := Backend("2x"); err == nil {
		t.Fatal("malformed ranks accepted")
	}
}

// TestRunCheckpointRestartAndJSON drives the full loop: step with
// -checkpoint-every, restart a fresh model from the file, and check the
// emitted JSON run record matches the step data.
func TestRunCheckpointRestartAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ckpt := filepath.Join(t.TempDir(), "run.chkpt")

	var csv, js bytes.Buffer
	m := smallSinker(t, 2)
	err := Run(m, Config{Steps: 2, CheckpointEvery: 1, CheckpointPath: ckpt, Out: &csv, JSONOut: &js, Scenario: "sinker"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "# checkpointed step 2") {
		t.Fatalf("missing checkpoint marker in output:\n%s", csv.String())
	}

	var rec RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatalf("bad JSON record: %v", err)
	}
	if rec.Scenario != "sinker" || rec.Backend != "shared" || len(rec.Steps) != 2 {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if k := fem.KernelName(); rec.Kernel != k || !strings.Contains(csv.String(), "# kernel: "+k+"\n") {
		t.Fatalf("kernel %q not named by the record (%q) and the output:\n%s", k, rec.Kernel, csv.String())
	}
	if rec.Steps[0].KrylovIts != m.Stats[0].KrylovIts || rec.AvgStepS <= 0 {
		t.Fatalf("record steps wrong: %+v", rec.Steps)
	}
	if n := rec.Steps[0].ResidualEvals; n != m.Stats[0].ResidualEvals || n <= rec.Steps[0].NewtonIts ||
		!strings.Contains(js.String(), `"line_search_stagnated"`) {
		t.Fatalf("record lacks the line-search fields: residual_evals %d for %d outer iterations", n, rec.Steps[0].NewtonIts)
	}

	// Restart from the step-2 checkpoint and take one more step.
	m2 := smallSinker(t, 2)
	var csv2 bytes.Buffer
	if err := Run(m2, Config{Steps: 1, RestartFrom: ckpt, Out: &csv2}); err != nil {
		t.Fatal(err)
	}
	if m2.StepNum != 3 {
		t.Fatalf("restarted run at step %d, want 3", m2.StepNum)
	}
	if !strings.Contains(csv2.String(), "# restarted from") {
		t.Fatalf("missing restart marker:\n%s", csv2.String())
	}
}

// TestRunRecordsCoeffUpdates: the record carries each step's coefficient
// evaluations — one per solve on the specs whose lithologies are all
// constant and non-plastic (nothing they read changes inside a solve),
// one per residual evaluation on the rift's Picard solve, whose flow laws
// read the strain rate — and the text step line does not.
func TestRunRecordsCoeffUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"sinker", "rayleigh-taylor", "rift"} {
		spec, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Resolution = spec.SmallResolution()
		m, err := scenario.Compile(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := Run(m, Config{Steps: 2, Out: &csv, JSONOut: &js, Scenario: name}); err != nil {
			t.Fatal(err)
		}
		var rec RunRecord
		if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		for i, st := range rec.Steps {
			want := int64(1)
			if name == "rift" {
				want = int64(st.ResidualEvals)
			}
			if st.CoeffUpdates != want || st.CoeffUpdates != m.Stats[i].CoeffUpdates {
				t.Errorf("%s step %d: coeff_updates %d in the record, %d in the step stats, want %d (%d residual evaluations)",
					name, st.Step, st.CoeffUpdates, m.Stats[i].CoeffUpdates, want, st.ResidualEvals)
			}
		}
		if strings.Contains(csv.String(), "coeff_updates") {
			t.Errorf("%s: the text output names coeff_updates:\n%s", name, csv.String())
		}
	}
}

// TestRunRecordsPopulation: the record carries what the step did to the
// population — on a rift with one element drained and one point put
// outside the domain before the step, population control refills the
// element with a 2³ lattice, the outside point is removed, and the count
// adds up — and the fewest and the most points per element after it.
func TestRunRecordsPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, err := scenario.Get("rift")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := m.Points
	for i := pts.Len() - 1; i >= 0; i-- {
		if pts.Elem[i] == 0 {
			pts.RemoveSwap(i)
		}
	}
	pts.X[0], pts.Elem[0] = -1e3, -1
	count := pts.Len()
	var js bytes.Buffer
	if err := Run(m, Config{Steps: 1, Out: &bytes.Buffer{}, JSONOut: &js, Scenario: "rift"}); err != nil {
		t.Fatal(err)
	}
	var rec RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	r, st := rec.Steps[0], m.Stats[0]
	if r.PointsRemoved != st.PointsRemoved || r.PointsInjected != st.PointsInjected || r.PPEMin != st.PPEMin || r.PPEMax != st.PPEMax {
		t.Fatalf("record %+v, step stats %+v", r, st)
	}
	if r.PointsInjected != 8 || r.PointsRemoved < 1 || r.PointCount != count-r.PointsRemoved+r.PointsInjected {
		t.Fatalf("%d points before the step, %d after: %d removed, %d injected; want 8 injected, 1 removed at least",
			count, r.PointCount, r.PointsRemoved, r.PointsInjected)
	}
	if r.PPEMin < m.MinPointsPerElement || r.PPEMax < r.PPEMin {
		t.Fatalf("points per element %d to %d, population control keeps %d", r.PPEMin, r.PPEMax, m.MinPointsPerElement)
	}
}

// fgmresBreaksDown is the shared backend with every FGMRES inner solve
// reported as a breakdown before it runs, so the nonlinear loop falls
// back to GCR on each.
type fgmresBreaksDown struct{ model.SharedBackend }

func (b fgmresBreaksDown) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	if method == "fgmres" {
		return krylov.Result{Err: &krylov.BreakdownError{Method: method, Kind: krylov.BreakdownNaN}}
	}
	return b.SharedBackend.LinearSolve(s, method, jop, pc, rhs, delta, prm)
}

// TestRunRecordsKrylovFallbacks: every step record carries its inner
// Krylov breakdowns and method fallbacks, as the step stats hold them —
// zero on a clean run, one of each per inner solve when every FGMRES
// solve breaks down.
func TestRunRecordsKrylovFallbacks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, broken := range []bool{false, true} {
		m := smallSinker(t, 2)
		if broken {
			m.Backend = fgmresBreaksDown{}
		}
		var js bytes.Buffer
		if err := Run(m, Config{Steps: 2, Out: &bytes.Buffer{}, JSONOut: &js, Scenario: "sinker"}); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"krylov_breakdowns"`, `"krylov_fallbacks"`} {
			if !strings.Contains(js.String(), key) {
				t.Fatalf("broken=%v: the record has no %s", broken, key)
			}
		}
		var rec RunRecord
		if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		breakdowns := 0
		for i, r := range rec.Steps {
			st := m.Stats[i]
			if r.KrylovBreakdowns != st.KrylovBreakdowns || r.KrylovFallbacks != st.KrylovFallbacks {
				t.Fatalf("broken=%v step %d: record %d/%d, step stats %d/%d", broken, r.Step,
					r.KrylovBreakdowns, r.KrylovFallbacks, st.KrylovBreakdowns, st.KrylovFallbacks)
			}
			if broken && (r.KrylovBreakdowns == 0 || r.KrylovFallbacks != r.KrylovBreakdowns) {
				t.Fatalf("step %d: %d breakdowns, %d fallbacks; want one of each per inner solve",
					r.Step, r.KrylovBreakdowns, r.KrylovFallbacks)
			}
			breakdowns += r.KrylovBreakdowns
		}
		if (breakdowns == 0) == broken {
			t.Fatalf("broken=%v: %d breakdowns over the run", broken, breakdowns)
		}
	}
}

// TestRunDistributedRecordsComm: a distributed run labels its stats and
// reports fabric traffic in the JSON record.
func TestRunDistributedRecordsComm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := smallSinker(t, 2)
	m.Backend, _ = Backend("2x1x1")
	var js bytes.Buffer
	if err := Run(m, Config{Steps: 1, Out: &bytes.Buffer{}, JSONOut: &js, Scenario: "sinker"}); err != nil {
		t.Fatal(err)
	}
	var rec RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Backend != "distributed" || rec.Ranks != 2 {
		t.Fatalf("record backend wrong: %+v", rec)
	}
	if rec.Steps[0].HaloMsgs == 0 || rec.Steps[0].AllReduces == 0 {
		t.Fatalf("no communication recorded: %+v", rec.Steps[0])
	}
}

// stepKeys are the keys of a -json step record with their JSON types:
// those the record has carried since the stage times came in, and the
// five it gained when model.StepStats became the record (time, fnorm0,
// fnorm, topo_min, topo_max). A key that changes its name or type, leaves
// or arrives unlisted breaks the readers of the record.
var stepKeys = map[string]string{
	"step": "number", "dt": "number", "newton_its": "number", "krylov_its": "number",
	"krylov_basis": "number", "converged": "bool", "residual_evals": "number",
	"line_search_stagnated": "bool", "krylov_breakdowns": "number", "krylov_fallbacks": "number",
	"points": "number", "points_removed": "number", "points_injected": "number",
	"ppe_min": "number", "ppe_max": "number", "wall_s": "number", "backend": "string",
	"ranks": "number", "halo_msgs": "number", "halo_bytes": "number", "allreduces": "number",
	"rheology_s": "number", "mpm_project_s": "number",
	"stokes_setup_s": "number", "stokes_krylov_s": "number", "advect_s": "number",
	"ale_s": "number", "thermal_s": "number", "stokes_setup_reused": "number",
	"coeff_updates": "number", "cpu_util": "number", "helper_share": "number",

	"time": "number", "fnorm0": "number", "fnorm": "number", "topo_min": "number", "topo_max": "number",
}

// TestRunRecordsStepStats: the -json steps are the model's step stats —
// decoded, equal to m.Stats field for field — under every key of
// stepKeys with its JSON type and no other. The run is on two ranks, so
// the keys omitted when zero are there; cpu_util is read from the
// process's CPU time, so every step has it, whether or not a collection
// ran inside it.
func TestRunRecordsStepStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := smallSinker(t, 2)
	m.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
	var js bytes.Buffer
	if err := Run(m, Config{Steps: 2, Out: &bytes.Buffer{}, JSONOut: &js, Scenario: "sinker"}); err != nil {
		t.Fatal(err)
	}
	var rec RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Steps, m.Stats) {
		t.Fatalf("record steps %+v\nstep stats %+v", rec.Steps, m.Stats)
	}
	var raw struct {
		Steps []map[string]any `json:"steps"`
	}
	if err := json.Unmarshal(js.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Steps) != 2 {
		t.Fatalf("%d steps in the record, want 2", len(raw.Steps))
	}
	for i, step := range raw.Steps {
		if got, want := sortedKeys(step), sortedKeys(stepKeys); !slices.Equal(got, want) {
			t.Fatalf("step %d: keys %v, want %v", i+1, got, want)
		}
		for key, v := range step {
			var typ string
			switch v.(type) {
			case float64:
				typ = "number"
			case bool:
				typ = "bool"
			case string:
				typ = "string"
			}
			if typ != stepKeys[key] {
				t.Errorf("step %d: %q is a JSON %s (%v), want a %s", i+1, key, typ, v, stepKeys[key])
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
