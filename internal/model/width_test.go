package model_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
)

// widthProbe is a 2×1×1 backend that records the width of the solver
// stack each relinearisation hands it.
type widthProbe struct {
	*model.DistributedBackend
	seen []int
}

func (b *widthProbe) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	b.seen = append(b.seen, s.Cfg.Workers)
	return b.DistributedBackend.LinearSolve(s, method, jop, pc, rhs, delta, prm)
}

// TestStepRunsWorkersTimesRanksWide: a sinker compiled one worker wide
// steps on a 2×1×1 backend two wide — its solver stack is built and
// refreshed at Cfg.Workers 2, and the projector and point location read
// Prob.Workers 2 — and one wide on the shared backend.
func TestStepRunsWorkersTimesRanksWide(t *testing.T) {
	if testing.Short() {
		t.Skip("runs without -short, and under -race in check.sh's one-stack stage")
	}
	for _, ranks := range []int{1, 2} {
		m := compileSmall(t, "sinker", 1)
		var seen *[]int
		if ranks == 1 {
			var shared []int
			seen = &shared
			m.Backend = preparedBackend{model.SharedBackend{}, func(s *stokes.Solver) { shared = append(shared, s.Cfg.Workers) }}
		} else {
			probe := &widthProbe{DistributedBackend: model.NewDistributedBackend(ranks, 1, 1, stokes.DistOptions{})}
			seen = &probe.seen
			m.Backend = probe
		}
		if err := m.StepForward(); err != nil {
			t.Fatal(err)
		}
		if len(*seen) == 0 {
			t.Fatalf("%d ranks: no solve", ranks)
		}
		for i, w := range *seen {
			if w != ranks {
				t.Errorf("%d ranks: relinearisation %d built its stack %d wide, want %d", ranks, i, w, ranks)
			}
		}
		if m.Prob.Workers != ranks {
			t.Errorf("%d ranks: Prob.Workers %d, want %d", ranks, m.Prob.Workers, ranks)
		}
		if want := map[int]int{1: 0, 2: 2}[ranks]; m.Stats[0].Ranks != want {
			t.Errorf("%d ranks: the record reads %d ranks, want %d", ranks, m.Stats[0].Ranks, want)
		}
	}
}

// TestStepWidthBitIdentical: on a 2×1×1 backend, two steps of the sinker
// and of the rift at Workers 1 (2 wide) and 2 (4 wide) end in the same
// state bit for bit, and every field of their step records that is not
// a time or a CPU share — counts, norms, time step, population,
// topography, communication volume — is equal.
func TestStepWidthBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs without -short, and under -race in check.sh's one-stack stage")
	}
	for _, name := range []string{"sinker", "rift"} {
		var runs [2]*model.Model
		for i, workers := range []int{1, 2} {
			m := compileSmall(t, name, workers)
			m.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
			for s := 0; s < 2; s++ {
				if err := m.StepForward(); err != nil {
					t.Fatalf("%s, %d workers: %v", name, workers, err)
				}
			}
			runs[i] = m
		}
		a, b := runs[0], runs[1]
		for i := range a.X {
			if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
				t.Fatalf("%s: X[%d] %x at 1 worker, %x at 2", name, i, a.X[i], b.X[i])
			}
		}
		typ := reflect.TypeOf(model.StepStats{})
		for s := range a.Stats {
			va, vb := reflect.ValueOf(a.Stats[s]), reflect.ValueOf(b.Stats[s])
			for f := 0; f < typ.NumField(); f++ {
				key, _, _ := strings.Cut(typ.Field(f).Tag.Get("json"), ",")
				if strings.HasSuffix(key, "_s") || key == "cpu_util" || key == "helper_share" {
					continue
				}
				fa, fb := va.Field(f), vb.Field(f)
				equal := fa.Interface() == fb.Interface()
				if fa.Kind() == reflect.Float64 {
					equal = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
				}
				if !equal {
					t.Errorf("%s step %d: %s %v at 1 worker, %v at 2", name, s+1, key, fa.Interface(), fb.Interface())
				}
			}
		}
	}
}
