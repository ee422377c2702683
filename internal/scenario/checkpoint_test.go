package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ptatin3d/internal/chkpt"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
)

func checkpointTestModelWorkers(workers int) *model.Model {
	o := DefaultSinkerOptions()
	o.M = 6
	o.Nc = 3
	o.Rc = 0.18
	o.DeltaEta = 100
	return MustCompile(Sinker(o), workers)
}

func checkpointTestModel() *model.Model { return checkpointTestModelWorkers(1) }

// TestCheckpointRestartExact verifies that restarting from a step-1
// checkpoint replays the remaining steps bit-for-bit: the continued run's
// residual histories, time steps and iteration counts must equal the
// uninterrupted reference run exactly, and re-serializing the restored
// state must reproduce the checkpoint byte-identically. The guarantee is
// worker-count independent — the slab-partitioned scatter fixes each
// worker's summation order regardless of scheduling — so the whole
// scenario runs at Workers 1, 2 and 4.
func TestCheckpointRestartExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			checkpointRestartExact(t, func() *model.Model { return checkpointTestModelWorkers(workers) })
		})
	}
}

// TestThermalCheckpointRestartExact extends the bit-exactness guarantee
// to a thermally coupled run: the rift scenario carries vertex
// temperature, material-point plastic strain, and the coupled velocity/
// pressure state through the checkpoint, and the continued run must
// replay the reference exactly at every worker count.
func TestThermalCheckpointRestartExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mk := func(workers int) func() *model.Model {
		return func() *model.Model {
			spec, err := Get("rift")
			if err != nil {
				t.Fatal(err)
			}
			spec.Resolution = spec.SmallResolution()
			m, err := Compile(spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			if m.T == nil || m.Temp == nil {
				t.Fatal("rift scenario compiled without a thermal solver")
			}
			return m
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			checkpointRestartExact(t, mk(workers))
		})
	}
}

// TestDistributedCheckpointRestartExact: the checkpoint format is
// backend-independent — a run on the distributed backend at 2 simulated
// ranks checkpoints and restarts bit-exactly, same as shared memory.
func TestDistributedCheckpointRestartExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"sinker", "rift"} {
		t.Run(name, func(t *testing.T) {
			checkpointRestartExact(t, func() *model.Model {
				spec, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Resolution = spec.SmallResolution()
				m, err := Compile(spec, 2)
				if err != nil {
					t.Fatal(err)
				}
				m.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
				return m
			})
		})
	}
}

func checkpointRestartExact(t *testing.T, mkModel func() *model.Model) {
	const steps = 3

	// Reference: uninterrupted run.
	ref := mkModel()
	for s := 0; s < steps; s++ {
		if err := ref.StepForward(); err != nil {
			t.Fatalf("reference step %d: %v", s, err)
		}
	}

	// Interrupted run: one step, checkpoint to disk, restore into a fresh
	// model, continue.
	path := filepath.Join(t.TempDir(), "step1.chkpt")
	a := mkModel()
	if err := a.StepForward(); err != nil {
		t.Fatalf("step 0: %v", err)
	}
	if err := a.SaveCheckpoint(path); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	b := mkModel()
	if err := b.LoadCheckpoint(path); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if b.StepNum != 1 || b.Time != a.Time {
		t.Fatalf("restored counters: step %d time %v, want step 1 time %v", b.StepNum, b.Time, a.Time)
	}

	if a.Temp != nil {
		if len(b.Temp) != len(a.Temp) {
			t.Fatalf("restored temperature has %d vertices, want %d", len(b.Temp), len(a.Temp))
		}
		for i := range a.Temp {
			if b.Temp[i] != a.Temp[i] {
				t.Fatalf("restored temperature differs at vertex %d: %v != %v", i, b.Temp[i], a.Temp[i])
			}
		}
	}

	// Byte-identical re-serialization of the restored state.
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if re := chkpt.Encode(b.Checkpoint()); !bytes.Equal(orig, re) {
		t.Fatal("restored model does not re-serialize byte-identically")
	}

	for s := 1; s < steps; s++ {
		if err := b.StepForward(); err != nil {
			t.Fatalf("continued step %d: %v", s, err)
		}
	}

	if len(b.Stats) != steps-1 {
		t.Fatalf("continued run has %d stats, want %d", len(b.Stats), steps-1)
	}
	for i, got := range b.Stats {
		want := ref.Stats[i+1]
		if got.Step != want.Step || got.Dt != want.Dt || got.Time != want.Time ||
			got.FNorm0 != want.FNorm0 || got.FNorm != want.FNorm ||
			got.NewtonIts != want.NewtonIts || got.KrylovIts != want.KrylovIts ||
			got.PointCount != want.PointCount {
			t.Errorf("continued step %d diverged from reference:\n got %+v\nwant %+v", want.Step, got, want)
		}
	}
}

// TestRestoreValidation feeds mismatched checkpoints to Restore; each must
// be rejected without modifying the model.
func TestRestoreValidation(t *testing.T) {
	m := checkpointTestModel()
	// X is lazily allocated by the first solve; size it so the base
	// checkpoint is valid.
	m.X = la.NewVec(m.Prob.DA.NVelDOF() + m.Prob.DA.NPresDOF())
	base := m.Checkpoint()

	mutations := map[string]func(st *chkpt.State){
		"grid":       func(st *chkpt.State) { st.Mx = 99 },
		"coords":     func(st *chkpt.State) { st.Coords = st.Coords[:9] },
		"dofs":       func(st *chkpt.State) { st.X = append(st.X, 0) },
		"elem-range": func(st *chkpt.State) { st.Elem[0] = int32(m.Prob.DA.NElements()) },
	}
	for name, mutate := range mutations {
		st := *base
		st.Coords = append([]float64(nil), base.Coords...)
		st.X = append([]float64(nil), base.X...)
		st.Elem = append([]int32(nil), base.Elem...)
		mutate(&st)
		if err := m.Restore(&st); err == nil {
			t.Errorf("%s: Restore accepted an invalid checkpoint", name)
		}
	}
	if err := m.Restore(base); err != nil {
		t.Errorf("Restore rejected a valid checkpoint: %v", err)
	}
}
