package model_test

import (
	"math"
	"testing"

	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
)

// TestRestoreSolvesOnTheRestoredMesh: a model that has stepped and solved
// on another mesh since a checkpoint was taken, restored from it, takes the
// next step a freshly compiled model restored from the same checkpoint
// takes: the same state bits and the same step record, on both backends.
// The sinker's free surface moves the mesh every step, so the restored
// coordinates differ from those the cached solver last saw; nothing
// announces the move, and the coupling blocks and the coarse coordinates
// follow the mesh anyway.
func TestRestoreSolvesOnTheRestoredMesh(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		backend := func() model.StokesBackend {
			if ranks == 1 {
				return model.SharedBackend{}
			}
			return model.NewDistributedBackend(ranks, 1, 1, stokes.DistOptions{})
		}
		t.Run(backend().Name(), func(t *testing.T) {
			m := compileSmall(t, "sinker", 1)
			m.Backend = backend()
			if err := m.StepForward(); err != nil {
				t.Fatal(err)
			}
			ck := m.Checkpoint()
			if err := m.StepForward(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.SolveStokes(); err != nil {
				t.Fatal(err)
			}
			if err := m.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if err := m.StepForward(); err != nil {
				t.Fatal(err)
			}

			fresh := compileSmall(t, "sinker", 1)
			fresh.Backend = backend()
			if err := fresh.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if err := fresh.StepForward(); err != nil {
				t.Fatal(err)
			}

			got, want := m.Stats[len(m.Stats)-1], fresh.Stats[len(fresh.Stats)-1]
			if got.NewtonIts != want.NewtonIts || got.KrylovIts != want.KrylovIts ||
				got.ResidualEvals != want.ResidualEvals || got.PointCount != want.PointCount ||
				got.PointsRemoved != want.PointsRemoved || got.PointsInjected != want.PointsInjected {
				t.Fatalf("restored step ran (newton %d, krylov %d, residuals %d, points %d −%d +%d), fresh restore (%d, %d, %d, %d −%d +%d)",
					got.NewtonIts, got.KrylovIts, got.ResidualEvals, got.PointCount, got.PointsRemoved, got.PointsInjected,
					want.NewtonIts, want.KrylovIts, want.ResidualEvals, want.PointCount, want.PointsRemoved, want.PointsInjected)
			}
			if math.Float64bits(got.FNorm0) != math.Float64bits(want.FNorm0) || math.Float64bits(got.Dt) != math.Float64bits(want.Dt) {
				t.Fatalf("restored step ‖F₀‖ %v, dt %v; fresh restore %v, %v", got.FNorm0, got.Dt, want.FNorm0, want.Dt)
			}
			if len(m.X) != len(fresh.X) {
				t.Fatalf("state length %d vs %d", len(m.X), len(fresh.X))
			}
			for i := range m.X {
				if math.Float64bits(m.X[i]) != math.Float64bits(fresh.X[i]) {
					t.Fatalf("state[%d] = %v after the restored step, %v after the fresh restore's", i, m.X[i], fresh.X[i])
				}
			}
		})
	}
}
