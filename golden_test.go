package ptatin3d_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// updateGolden regenerates the testdata/ golden files instead of checking
// against them:
//
//	go test -run Golden -update .
var updateGolden = flag.Bool("update", false, "rewrite golden regression files")

// goldenRecord is the persisted summary of one deterministic reference
// solve: outer Krylov behaviour plus the telemetry counters that encode
// the multigrid work balance.
type goldenRecord struct {
	Iterations int              `json:"iterations"`
	Converged  bool             `json:"converged"`
	Residual0  float64          `json:"residual0"`
	FinalRel   float64          `json:"final_rel_residual"`
	Counters   map[string]int64 `json:"counters"`
}

// goldenCounters names the telemetry counters captured in the record; the
// last path element is the counter name, the rest the scope path.
var goldenCounters = [][]string{
	{"krylov", "iterations"},
	{"krylov", "solves"},
	{"mg", "cycles"},
	{"mg", "level0", "smooth_applies"},
	{"mg", "level0", "op_applies"},
	{"mg", "coarse", "solves"},
}

func counterAt(sn *telemetry.ScopeSnapshot, path []string) int64 {
	for _, name := range path[:len(path)-1] {
		i := slices.IndexFunc(sn.Children, func(c *telemetry.ScopeSnapshot) bool { return c.Name == name })
		if i < 0 {
			return -1
		}
		sn = sn.Children[i]
	}
	return sn.Counters[path[len(path)-1]]
}

// solveGolden runs one Stokes solve with telemetry attached and collapses
// it into a goldenRecord.
func solveGolden(t *testing.T, p *fem.Problem, cfg stokes.Config) goldenRecord {
	t.Helper()
	reg := telemetry.New()
	cfg.Telemetry = reg.Root()
	s, err := stokes.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	res := s.Solve(x, bu, nil)

	rec := goldenRecord{
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Residual0:  res.Residual0,
		FinalRel:   res.Residual / res.Residual0,
		Counters:   map[string]int64{},
	}
	sn := reg.Root().Snapshot()
	for _, path := range goldenCounters {
		name := ""
		for i, e := range path {
			if i > 0 {
				name += "."
			}
			name += e
		}
		rec.Counters[name] = counterAt(sn, path)
	}
	return rec
}

// sinker3Record solves the 3-sinker configuration (paper §IV-B geometry at
// reduced resolution, 3 spheres, Δη=100) directly with the production GMG
// preconditioner.
func sinker3Record(t *testing.T, kind op.Kind) goldenRecord {
	o := scenario.DefaultSinkerOptions()
	o.M = 8
	o.Nc = 3
	o.Rc = 0.18
	o.DeltaEta = 100
	mdl := scenario.MustCompile(scenario.Sinker(o), 1)
	cfg := mdl.StokesConfig()
	cfg.FineKind = kind
	return solveGolden(t, mdl.Prob, cfg)
}

// rayleighTaylorRecord solves a two-layer Rayleigh–Taylor configuration: a
// dense, stiff layer overlying a weak one in a free-slip box.
func rayleighTaylorRecord(t *testing.T) goldenRecord {
	da := mesh.New(8, 8, 8, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
	p := fem.NewProblem(da, bc)
	p.Gravity = [3]float64{0, 0, -1}
	iface := func(x, y float64) float64 {
		return 0.5 + 0.04*math.Cos(2*math.Pi*x)*math.Cos(2*math.Pi*y)
	}
	eta := func(x, y, z float64) float64 {
		if z > iface(x, y) {
			return 10
		}
		return 1
	}
	rho := func(x, y, z float64) float64 {
		if z > iface(x, y) {
			return 1.2
		}
		return 1
	}
	p.SetCoefficientsFunc(eta, rho)
	cfg := stokes.DefaultConfig()
	cfg.CoeffCoarsen = mg.FuncCoeffCoarsener(eta, rho)
	return solveGolden(t, p, cfg)
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".json")
}

// checkGolden compares a freshly computed record against the stored golden
// file (or rewrites the file under -update). Tolerances are deliberately
// loose enough to absorb floating-point drift across architectures while
// still catching algorithmic regressions: iteration counts within
// max(2, 15%), work counters within 30%, the initial residual (a pure
// discretization quantity) to 1e-6 relative, and the final relative
// residual no worse than both the solver tolerance and 10× the golden.
func checkGolden(t *testing.T, name string, got goldenRecord, rtol float64) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s: %+v", path, got)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	var want goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}

	if got.Converged != want.Converged {
		t.Errorf("%s: converged=%v, golden %v", name, got.Converged, want.Converged)
	}
	itTol := int(math.Ceil(0.15 * float64(want.Iterations)))
	if itTol < 2 {
		itTol = 2
	}
	if d := got.Iterations - want.Iterations; d < -itTol || d > itTol {
		t.Errorf("%s: iterations=%d, golden %d (tol ±%d)", name, got.Iterations, want.Iterations, itTol)
	}
	if rel := math.Abs(got.Residual0-want.Residual0) / want.Residual0; rel > 1e-6 {
		t.Errorf("%s: residual0=%.12e, golden %.12e (rel %.2e)", name, got.Residual0, want.Residual0, rel)
	}
	if got.FinalRel > rtol || got.FinalRel > 10*want.FinalRel {
		t.Errorf("%s: final relative residual %.3e (golden %.3e, rtol %.1e)",
			name, got.FinalRel, want.FinalRel, rtol)
	}
	for k, wv := range want.Counters {
		gv, ok := got.Counters[k]
		if !ok || gv < 0 {
			t.Errorf("%s: counter %s missing (got %d)", name, k, gv)
			continue
		}
		slack := int64(math.Ceil(0.30 * float64(wv)))
		if slack < 4 {
			slack = 4
		}
		if d := gv - wv; d < -slack || d > slack {
			t.Errorf("%s: counter %s=%d, golden %d (tol ±%d)", name, k, gv, wv, slack)
		}
	}
	if t.Failed() {
		t.Logf("%s: got %+v", name, got)
	}
}

// TestGoldenSinker3 is the 3-sinker golden regression run, on the default
// resident fine kind.
func TestGoldenSinker3(t *testing.T) {
	rec := sinker3Record(t, stokes.DefaultConfig().FineKind)
	checkGolden(t, "golden_sinker3", rec, stokes.DefaultConfig().Params.RTol)
}

// TestGoldenSinker3Backends re-runs the 3-sinker golden configuration
// under every explicit fine-level operator representation: the choice of
// representation changes only how A·x is computed, so the solver must
// reproduce the same golden record regardless of -op.
func TestGoldenSinker3Backends(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: explicit-backend golden sweep skipped")
	}
	for _, k := range []op.Kind{op.Tensor, op.MFRef, op.Assembled, op.Galerkin} {
		t.Run(k.String(), func(t *testing.T) {
			rec := sinker3Record(t, k)
			checkGolden(t, "golden_sinker3", rec, stokes.DefaultConfig().Params.RTol)
		})
	}
}

// TestGoldenRayleighTaylor is the Rayleigh–Taylor golden regression run.
func TestGoldenRayleighTaylor(t *testing.T) {
	rec := rayleighTaylorRecord(t)
	checkGolden(t, "golden_rayleigh_taylor", rec, stokes.DefaultConfig().Params.RTol)
}

// TestGoldenResidualTrace cross-checks the telemetry residual series
// against the solver result on the Rayleigh–Taylor configuration: the
// trace must be present, start at Residual0 and end at the converged
// residual — guaranteeing the per-iteration data behind Figure 2 stays
// wired through the telemetry layer.
func TestGoldenResidualTrace(t *testing.T) {
	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
	p := fem.NewProblem(da, bc)
	p.Gravity = [3]float64{0, 0, -1}
	p.SetCoefficientsFunc(
		func(x, y, z float64) float64 { return 1 },
		func(x, y, z float64) float64 { return 1 + 0.2*z },
	)
	reg := telemetry.New()
	cfg := stokes.DefaultConfig()
	cfg.Levels = 2
	cfg.Telemetry = reg.Root()
	s, err := stokes.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	res := s.Solve(x, bu, nil)
	if !res.Converged {
		t.Fatalf("solve failed after %d its", res.Iterations)
	}
	trace := reg.Root().Child("krylov").Series("residual").Values()
	if len(trace) < 2 {
		t.Fatalf("residual trace too short: %v", trace)
	}
	if trace[0] != res.Residual0 {
		t.Errorf("trace[0]=%v, Residual0=%v", trace[0], res.Residual0)
	}
	if last := trace[len(trace)-1]; last != res.Residual {
		t.Errorf("trace end=%v, Residual=%v", last, res.Residual)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[0]*1e3 {
			t.Errorf("residual trace diverged at %d: %v", i, trace[i])
		}
	}
}
