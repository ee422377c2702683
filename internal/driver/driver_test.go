package driver

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
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
	ov := Overrides{Op: "asm", Precision: "f32", Restart: 123}
	if err := ov.Apply(m); err != nil {
		t.Fatal(err)
	}
	if m.Cfg.FineKind != op.Assembled || m.Cfg.Precision != op.F32 || m.Cfg.Params.Restart != 123 {
		t.Fatalf("overrides not applied: %+v", m.Cfg)
	}
	if err := (Overrides{Op: "nope"}).Apply(m); err == nil {
		t.Fatal("bad -op value accepted")
	}
	if err := (Overrides{Precision: "f16"}).Apply(m); err == nil {
		t.Fatal("bad -precision value accepted")
	}
	// The run-time selector is gone, and a reduced-precision kind is not a
	// fine kind (the coupled matvec would run single precision): both are
	// refused here, before any solve, with a message saying what to use.
	for opFlag, want := range map[string]string{
		"auto":  "selector \"auto\" was removed",
		"mf32":  "-precision f32",
		"asm32": "-precision f32",
	} {
		before := m.Cfg
		err := (Overrides{Op: opFlag}).Apply(m)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-op %s: got %v, want an error containing %q", opFlag, err, want)
		}
		if m.Cfg.FineKind != before.FineKind || m.Cfg.Precision != before.Precision {
			t.Errorf("-op %s: a refused override changed the configuration", opFlag)
		}
	}
}

// TestBackendSelection: the -ranks flag maps to the right backend.
func TestBackendSelection(t *testing.T) {
	if b, err := Backend("", false, 0); err != nil || b != (model.SharedBackend{}) {
		t.Fatalf("empty ranks: backend %v err %v, want shared", b, err)
	}
	if b, err := Backend("1x1x1", false, 0); err != nil || b != (model.SharedBackend{}) {
		t.Fatalf("1x1x1: backend %v err %v, want shared", b, err)
	}
	b, err := Backend("2x1x2", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, ok := b.(*model.DistributedBackend)
	if !ok || db.Ranks() != 4 {
		t.Fatalf("2x1x2: got %T with %d ranks", b, db.Ranks())
	}
	if _, err := Backend("2x", false, 0); err == nil {
		t.Fatal("malformed ranks accepted")
	}
	if _, err := Backend("2x1x2", false, 4); err != nil {
		t.Fatalf("one root per rank refused: %v", err)
	}
	for _, roots := range []int{-1, 8} {
		_, err := Backend("2x1x1", false, roots)
		if err == nil || !strings.Contains(err.Error(), "-coarse-roots") || !strings.Contains(err.Error(), "2x1x1") {
			t.Fatalf("coarse roots %d on 2 ranks: err %v, want one naming -coarse-roots and the rank count", roots, err)
		}
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

// TestRunDistributedRecordsComm: a distributed run labels its stats and
// reports fabric traffic in the JSON record.
func TestRunDistributedRecordsComm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := smallSinker(t, 2)
	m.Backend, _ = Backend("2x1x1", false, 0)
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
	// Zero on a fault-free fabric, which is Smoke's to assert (it runs
	// alone; a test sharing the host can be descheduled past a timeout).
	if n := rec.Steps[0].Retries; n != m.Stats[0].Retries {
		t.Fatalf("retries in the record %d, in the step stats %d", n, m.Stats[0].Retries)
	}

	// The same step under an attempt deadline no reply can meet: the
	// retransmissions reach the record, the iterations do not move.
	m2 := smallSinker(t, 2)
	m2.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{
		Policy: comm.RetryPolicy{Timeout: time.Microsecond, MaxRetries: 60, Backoff: 1.5},
	})
	js.Reset()
	if err := Run(m2, Config{Steps: 1, Out: &bytes.Buffer{}, JSONOut: &js, Scenario: "sinker"}); err != nil {
		t.Fatal(err)
	}
	var rec2 RunRecord
	if err := json.Unmarshal(js.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}
	if n := rec2.Steps[0].Retries; n == 0 || n != m2.Stats[0].Retries {
		t.Fatalf("retries in the record %d, in the step stats %d, want equal and positive", n, m2.Stats[0].Retries)
	}
	if rec2.Steps[0].KrylovIts != rec.Steps[0].KrylovIts {
		t.Fatalf("retransmissions moved the solve: %d iterations, %d without", rec2.Steps[0].KrylovIts, rec.Steps[0].KrylovIts)
	}
}
