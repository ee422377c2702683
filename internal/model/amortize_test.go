package model_test

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ptatin3d/internal/driver"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// coldBackend is the A/B oracle of the amortized set-up: it ignores the
// refreshed solver the model hands it and runs every inner solve on a
// solver built cold from the same problem and configuration — operator,
// preconditioner and (distributed) hierarchy views alike.
type coldBackend struct {
	model.StokesBackend
	builds *int
}

func (b coldBackend) LinearSolve(s *stokes.Solver, method string, _ krylov.Op, _ krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	fresh, err := stokes.New(s.Prob, s.Cfg)
	if err != nil {
		return krylov.Result{Err: err}
	}
	*b.builds++
	return b.StokesBackend.LinearSolve(fresh, method, fresh.Op, fresh.FS, rhs, delta, prm)
}

func compileSmall(t *testing.T, name string, workers int) *model.Model {
	t.Helper()
	spec, err := scenario.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, workers)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return m
}

func runSteps(t *testing.T, m *model.Model, steps int) {
	t.Helper()
	if err := driver.Run(m, driver.Config{Steps: steps, Out: io.Discard}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedSetupMatchesColdBuild is the amortization's bit-identity gate:
// running the time loop with the amortized solver setup (refresh the
// cached stack on every relinearization) must reproduce the cold-build
// trajectory (every inner solve on a coldBackend solver) bit for bit —
// same state vector, same Newton/Krylov counts, same residual norms —
// over multiple steps of both model problems on both backends, including
// the ALE geometry invalidation of the rift's free surface.
func TestCachedSetupMatchesColdBuild(t *testing.T) {
	const steps = 3
	for _, name := range []string{"sinker", "rift"} {
		for _, mode := range []string{"shared", "distributed"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				cold := compileSmall(t, name, 2)
				warm := compileSmall(t, name, 2)
				if mode == "distributed" {
					cold.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
					warm.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})
				}
				builds := 0
				cold.Backend = coldBackend{cold.Backend, &builds}
				runSteps(t, cold, steps)
				runSteps(t, warm, steps)
				if len(cold.X) != len(warm.X) {
					t.Fatalf("state length %d vs %d", len(cold.X), len(warm.X))
				}
				for i := range cold.X {
					if cold.X[i] != warm.X[i] {
						t.Fatalf("state[%d]: cold %x vs cached %x", i, cold.X[i], warm.X[i])
					}
				}
				var reused int64
				for s := 0; s < steps; s++ {
					c, w := cold.Stats[s], warm.Stats[s]
					if c.NewtonIts != w.NewtonIts || c.KrylovIts != w.KrylovIts {
						t.Fatalf("step %d: iterations (%d,%d) cold vs (%d,%d) cached",
							s+1, c.NewtonIts, c.KrylovIts, w.NewtonIts, w.KrylovIts)
					}
					if c.FNorm0 != w.FNorm0 || c.FNorm != w.FNorm {
						t.Fatalf("step %d: residuals (%x,%x) cold vs (%x,%x) cached",
							s+1, c.FNorm0, c.FNorm, w.FNorm0, w.FNorm)
					}
					if c.Dt != w.Dt || c.PointCount != w.PointCount {
						t.Fatalf("step %d: dt/points (%x,%d) cold vs (%x,%d) cached",
							s+1, c.Dt, c.PointCount, w.Dt, w.PointCount)
					}
					reused += w.StokesSetupReused
				}
				if builds == 0 {
					t.Fatal("cold path never built a solver")
				}
				if reused == 0 {
					t.Fatal("cached path never reused the solver setup")
				}
			})
		}
	}
}

// TestKrylovWarmStart pins that successive Stokes solves continue from
// the previous solution in place: solving again without perturbing the
// material state starts at the converged residual (no re-zeroing of the
// state) and does not reallocate m.X.
func TestKrylovWarmStart(t *testing.T) {
	m := compileSmall(t, "sinker", 2)
	res1, err := m.SolveStokes()
	if err != nil {
		t.Fatal(err)
	}
	p0 := &m.X[0]
	res2, err := m.SolveStokes()
	if err != nil {
		t.Fatal(err)
	}
	if &m.X[0] != p0 {
		t.Fatal("m.X was reallocated between solves; warm start lost")
	}
	if res2.FNorm0 != res1.FNorm {
		t.Fatalf("second solve started at |F|=%x, want previous final %x", res2.FNorm0, res1.FNorm)
	}
	if res2.KrylovIts > res1.KrylovIts {
		t.Fatalf("warm-started solve used more Krylov iterations (%d) than the first (%d)",
			res2.KrylovIts, res1.KrylovIts)
	}
}

// jopBackend records the Krylov operator of every inner solve.
type jopBackend struct {
	model.StokesBackend
	jops *[]krylov.Op
}

func (b jopBackend) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	*b.jops = append(*b.jops, jop)
	return b.StokesBackend.LinearSolve(s, method, jop, pc, rhs, delta, prm)
}

// TestPrepareSkipsRepeatedCoefficientUpdate: the nonlinear loop
// relinearises at the state whose residual it has just evaluated, so a
// Picard solve of the rift evaluates the rheology of every point once per
// residual evaluation and never again in Prepare; a Newton solve
// evaluates it once more per relinearisation, because only that pass
// yields η′/ε̇, and its Krylov operator carries the factor. On the sinker
// and the Rayleigh–Taylor spec no flow law reads the strain rate or the
// pressure, so the one evaluation of the solve holds at every state it
// visits: the coefficients installed at the end are, bit for bit, those a
// fresh evaluation at the final state installs. The density, which only
// the solve's first update evaluates, is that of the final state on all
// four.
func TestPrepareSkipsRepeatedCoefficientUpdate(t *testing.T) {
	for _, c := range []struct {
		name   string
		newton bool
	}{{"rift", false}, {"rift", true}, {"sinker", false}, {"rayleigh-taylor", false}} {
		m := compileSmall(t, c.name, 2)
		m.UseNewton = c.newton
		m.Telemetry = telemetry.New().Root().Child("model")
		var jops []krylov.Op
		m.Backend = jopBackend{m.Backend, &jops}
		// A temperature the compiled density was not evaluated at, as after
		// a thermal step: the solve's first update must take it up.
		for i := range m.Temp {
			m.Temp[i] *= 0.99
		}
		res, err := m.SolveStokes()
		if err != nil {
			t.Fatal(err)
		}
		if res.ResidualEvals < 2 || len(jops) < res.Iterations || (c.name == "rift" && res.Iterations < 2) {
			t.Fatalf("%s newton=%v: %d outer iterations, %d residual evaluations, %d inner solves: nothing to tell apart",
				c.name, c.newton, res.Iterations, res.ResidualEvals, len(jops))
		}
		want := int64(1)
		if c.name == "rift" {
			want = int64(res.ResidualEvals)
		}
		if c.newton {
			want += int64(res.Iterations)
		}
		if got := m.Telemetry.Counter("coeff_updates").Value(); got != want {
			t.Fatalf("%s newton=%v: %d coefficient updates for %d residual evaluations and %d relinearisations, want %d",
				c.name, c.newton, got, res.ResidualEvals, res.Iterations, want)
		}
		eta, rho := slices.Clone(m.Prob.Eta), slices.Clone(m.Prob.Rho)
		m.UpdateCoefficients(m.X, false)
		if !sameBitsSlice(rho, m.Prob.Rho) {
			t.Fatalf("%s newton=%v: the density installed at the solve's first update differs from that of its final state", c.name, c.newton)
		}
		if c.name != "rift" && !sameBitsSlice(eta, m.Prob.Eta) {
			t.Fatalf("%s: the coefficients installed at the start of the solve differ from those of its final state", c.name)
		}
		if !c.newton {
			continue
		}
		nop, ok := jops[len(jops)-1].(*stokes.Op).Auu.(*fem.NewtonOp)
		if !ok {
			t.Fatal("Newton solve ran a Picard Krylov operator")
		}
		nonzero := 0
		for _, f := range nop.Fac {
			if f != 0 {
				nonzero++
			}
		}
		if len(nop.Fac) != fem.NQP*m.Prob.DA.NElements() || nonzero == 0 {
			t.Fatalf("Newton factor: %d entries, %d nonzero", len(nop.Fac), nonzero)
		}
	}
}

// TestSetupFailureStopsBeforeAnySolve: a spec whose solver set-up fails (it
// names a coarse solver that is not built, such as "nobody" or "lu") stops
// the Stokes solve at its first relinearisation — no inner solve runs on
// either backend, no stand-in operator is iterated on — and the error
// names the set-up.
func TestSetupFailureStopsBeforeAnySolve(t *testing.T) {
	spec, err := scenario.Get("sinker")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	for _, coarse := range []string{"nobody", "lu"} {
		spec.Solver.CoarseSolver = coarse
		for _, inner := range []model.StokesBackend{model.SharedBackend{}, model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})} {
			m, err := scenario.Compile(spec, 1)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var solves []krylov.Op
			m.Backend = jopBackend{inner, &solves}
			res, err := m.SolveStokes()
			if err == nil || !strings.Contains(err.Error(), "preconditioner setup") || !strings.Contains(err.Error(), fmt.Sprintf("unknown coarse solver %q", coarse)) {
				t.Fatalf("%s, %s: err = %v; want the failed set-up named", coarse, inner.Name(), err)
			}
			if len(solves) != 0 || res.KrylovIts != 0 || res.Iterations != 0 {
				t.Fatalf("%s, %s: %d inner solves, %d Krylov and %d outer iterations after a failed set-up; want none", coarse, inner.Name(), len(solves), res.KrylovIts, res.Iterations)
			}
		}
	}
}

// preparedBackend calls seen with the solver of each relinearisation, at
// the moment the model hands it over — the coefficients Prepare coarsened
// still the ones the model holds.
type preparedBackend struct {
	model.StokesBackend
	seen func(*stokes.Solver)
}

func (b preparedBackend) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	b.seen(s)
	return b.StokesBackend.LinearSolve(s, method, jop, pc, rhs, delta, prm)
}

// TestStokesConfigIsWhatPrepareHands: Model.StokesConfig — what
// LinearStokes builds the paper's tables from — is, field by field, the
// configuration the time loop's Prepare hands the cached solver context
// (which the solver keeps as Cfg), at the first build and at a refresh.
// The rift makes the fields that differ from stokes.DefaultConfig count:
// vertical axis 1, V(3,3), asmcg. The coefficient coarsener is a closure,
// compared by what it installs on level 1; the solver fills
// Params.Telemetry in when it is nil.
func TestStokesConfigIsWhatPrepareHands(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := compileSmall(t, "rift", 2)
	m.Telemetry = telemetry.New().Root().Child("model")
	relinearisations := 0
	m.Backend = preparedBackend{m.Backend, func(s *stokes.Solver) {
		relinearisations++
		handed, recipe := s.Cfg, m.StokesConfig()
		if recipe.VerticalAxis != 1 || recipe.Workers != 2 || recipe.Telemetry == nil {
			t.Fatalf("recipe does not carry the model's axis, width and scope: %+v", recipe)
		}
		hv, rv := reflect.ValueOf(handed), reflect.ValueOf(recipe)
		for i := 0; i < hv.NumField(); i++ {
			name := hv.Type().Field(i).Name
			switch {
			case name == "CoeffCoarsen":
				coarse := func(cc func(int, *fem.Problem)) *fem.Problem {
					return mg.CoarsenProblems(m.Prob, 2, cc)[1]
				}
				hp, rp := coarse(handed.CoeffCoarsen), coarse(recipe.CoeffCoarsen)
				if !slices.Equal(hp.Eta, rp.Eta) || !slices.Equal(hp.Rho, rp.Rho) {
					t.Error("CoeffCoarsen: the two closures install different level-1 coefficients")
				}
			case name == "Params":
				hp := handed.Params
				hp.Telemetry = recipe.Params.Telemetry
				if !reflect.DeepEqual(hp, recipe.Params) {
					t.Errorf("Params: handed %+v, recipe %+v", hp, recipe.Params)
				}
			case hv.Field(i).Kind() == reflect.Func:
				t.Errorf("%s: a function field this test does not compare by behaviour", name)
			case !reflect.DeepEqual(hv.Field(i).Interface(), rv.Field(i).Interface()):
				t.Errorf("%s: handed %v, recipe %v", name, hv.Field(i).Interface(), rv.Field(i).Interface())
			}
		}
	}}
	if _, err := m.SolveStokes(); err != nil {
		t.Fatal(err)
	}
	if relinearisations < 2 {
		t.Fatalf("%d relinearisations: no refresh compared", relinearisations)
	}
}
