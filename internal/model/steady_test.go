package model_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// skipAllocBudget skips an allocation budget where it cannot hold: under
// the race detector, which allocates for itself, and under -short, whose
// halved resolutions the budgets are not stated for.
func skipAllocBudget(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
}

// TestAllocBudgetDistributedSolve: once a world shape has had its first
// solve, a further 2-rank LinearSolveDistributed, after a Refresh of the
// solver, allocates less than 64 KiB across all ranks: the rank views,
// halo buffers, allreduce buffers and Krylov workspaces of the first solve
// serve it. What is left is the world and its rank goroutines, the
// per-solve stats and the telemetry series growing.
func TestAllocBudgetDistributedSolve(t *testing.T) {
	skipAllocBudget(t)
	m := compileSmall(t, "sinker", 1)
	s, bu, err := m.LinearStokes(nil)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Op.N()
	rhs, delta := la.NewVec(n), la.NewVec(n)
	copy(rhs, bu)
	solve := func() {
		res, _, err := s.LinearSolveDistributed(s.Cfg.OuterMethod, s.Op, rhs, delta, s.Cfg.Params, 2, 1, 1)
		if err != nil || !res.Converged {
			t.Fatalf("distributed solve: converged %v after %d its, err %v", res.Converged, res.Iterations, err)
		}
	}
	solve()
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	got := allocated(solve)
	t.Logf("a steady 2-rank solve allocated %d B", got)
	if got >= 64<<10 {
		t.Fatalf("a steady 2-rank solve allocated %d B; want < 64 KiB", got)
	}
}

// TestAllocBudgetSteadyStep: after the warm-up step, a time step of the
// sinker at its small resolution (8³) allocates at most a quarter of what
// it did before the rank views, halo buffers and set-up storage were kept
// on the 2×1×1 backend, and at most half on the shared one. Before (commit
// 24a95f3, go1.24 on linux/amd64, 1 worker, this test's measurement), a
// step allocated 15.47 MB on 2×1×1 and 4.36–4.44 MB shared, over three
// runs.
func TestAllocBudgetSteadyStep(t *testing.T) {
	skipAllocBudget(t)
	for _, c := range []struct {
		backend model.StokesBackend
		before  float64 // bytes per step before
		frac    float64
	}{
		{model.SharedBackend{}, 4.40e6, 0.5},
		{model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{}), 15.47e6, 0.25},
	} {
		m := compileSmall(t, "sinker", 1)
		m.Backend = c.backend
		if err := m.StepForward(); err != nil {
			t.Fatal(err)
		}
		const steps = 2
		got := float64(allocated(func() {
			for i := 0; i < steps; i++ {
				if err := m.StepForward(); err != nil {
					t.Fatal(err)
				}
			}
		})) / steps
		t.Logf("%s: %.2f MB per step (before %.2f MB)", c.backend.Name(), got/1e6, c.before/1e6)
		if got > c.frac*c.before {
			t.Errorf("%s: a steady step allocates %.2f MB; want at most %.2f of %.2f MB", c.backend.Name(), got/1e6, c.frac, c.before/1e6)
		}
	}
}

// TestKrylovRecordedOnce: on both backends a step's Krylov iterations are
// recorded once, under the solver's own "krylov" scope — on ranks by rank
// 0 alone, which iterates in lockstep with the others — and no rank scope
// holds a copy; the ranks keep their communication counters. No scope
// outside stokes.krylov holds an iteration count at all: the step's
// counts are its StepStats record.
func TestKrylovRecordedOnce(t *testing.T) {
	for _, backend := range []model.StokesBackend{model.SharedBackend{}, model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})} {
		m := compileSmall(t, "sinker", 1)
		m.Backend = backend
		m.Telemetry = telemetry.New().Root().Child("model")
		if err := m.StepForward(); err != nil {
			t.Fatal(err)
		}
		want := int64(m.Stats[0].KrylovIts)
		var stokesSnap *telemetry.ScopeSnapshot
		for _, c := range m.Telemetry.Snapshot().Children {
			if c.Name == "stokes" {
				stokesSnap = c
			}
		}
		if stokesSnap == nil {
			t.Fatalf("%s: no stokes scope", backend.Name())
		}
		var krylovIts int64
		ranks := 0
		for _, c := range stokesSnap.Children {
			switch c.Name {
			case "krylov":
				krylovIts = c.Counters["iterations"]
			case "dist":
				for _, r := range c.Children {
					ranks++
					if r.Timers["allreduce"].Calls == 0 {
						t.Errorf("%s: %s lost its communication counters", backend.Name(), r.Name)
					}
					for _, rc := range r.Children {
						if rc.Name == "krylov" {
							t.Errorf("%s: %s records the solve's Krylov iterations again", backend.Name(), r.Name)
						}
					}
				}
			}
		}
		walkScopes(m.Telemetry.Snapshot(), "", func(path string, sc *telemetry.ScopeSnapshot) {
			for name := range sc.Counters {
				if isIterationCount(name) && path != "model.stokes.krylov" {
					t.Errorf("%s: %s holds an iteration count %q", backend.Name(), path, name)
				}
			}
		})
		if want == 0 || krylovIts != want {
			t.Errorf("%s: stokes.krylov records %d iterations; the step ran %d", backend.Name(), krylovIts, want)
		}
		if wantRanks := map[string]int{"shared": 0, "distributed": 2}[backend.Name()]; ranks != wantRanks {
			t.Errorf("%s: %d rank scopes, want %d", backend.Name(), ranks, wantRanks)
		}
	}
}

// isIterationCount reports whether a counter's name says it counts solver
// iterations.
func isIterationCount(name string) bool {
	return name == "iterations" || name == "its" || strings.HasSuffix(name, "_its")
}

// walkScopes calls f on sc and every scope below it, each with its dotted
// path.
func walkScopes(sc *telemetry.ScopeSnapshot, parent string, f func(path string, sc *telemetry.ScopeSnapshot)) {
	path := sc.Name
	if parent != "" {
		path = parent + "." + sc.Name
	}
	f(path, sc)
	for _, c := range sc.Children {
		walkScopes(c, path, f)
	}
}

// attemptCounter counts the inner solves a backend is asked for.
type attemptCounter struct {
	model.StokesBackend
	methods []string
}

func (b *attemptCounter) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	b.methods = append(b.methods, method)
	return b.StokesBackend.LinearSolve(s, method, jop, pc, rhs, delta, prm)
}

// TestDecompFailureIsNotRetried: a rank grid the coarse level cannot
// split (4 ranks along an axis of fewer elements) fails the step with a
// *comm.DecompError in its chain after one inner-solve attempt; it is no
// breakdown, so no fallback method runs and none is named.
func TestDecompFailureIsNotRetried(t *testing.T) {
	m := compileSmall(t, "sinker", 1)
	b := &attemptCounter{StokesBackend: model.NewDistributedBackend(4, 1, 1, stokes.DistOptions{})}
	m.Backend = b
	err := m.StepForward()
	if !errors.As(err, new(*comm.DecompError)) {
		t.Fatalf("step error %v, want a *comm.DecompError in its chain", err)
	}
	if len(b.methods) != 1 || strings.Contains(err.Error(), "fallback") {
		t.Fatalf("inner solves %v, error %q: want one attempt and no fallback", b.methods, err)
	}
}
