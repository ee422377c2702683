package ptatin3d_test

import (
	"math"
	"testing"

	"ptatin3d"
)

// TestFacadeSinkerLifecycle drives the full public API surface: model
// construction, a time step, diagnostics and streamlines.
func TestFacadeSinkerLifecycle(t *testing.T) {
	o := ptatin3d.DefaultSinkerOptions()
	o.M = 4
	m, err := ptatin3d.CompileScenario(ptatin3d.SinkerScenario(o), 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Cfg.Levels = 2
	if err := m.StepForward(); err != nil {
		t.Fatal(err)
	}
	if len(m.Stats) != 1 || m.Stats[0].Dt <= 0 {
		t.Fatalf("stats not recorded: %+v", m.Stats)
	}
	var ke float64
	for _, v := range m.Velocity() {
		ke += 0.5 * v * v
	}
	if ke <= 0 || math.IsNaN(ke) {
		t.Fatalf("kinetic energy %v", ke)
	}
	line := m.Streamline(0.5, 0.5, 0.7, 0.05, 50)
	if len(line) < 2 {
		t.Fatal("no streamline")
	}
}

// TestFacadeCustomProblem builds a custom Stokes problem purely through
// the facade (the library-user path of examples/rayleigh-taylor).
func TestFacadeCustomProblem(t *testing.T) {
	da := ptatin3d.NewMesh(4, 4, 4, 0, 1, 0, 1, 0, 1)
	bc := ptatin3d.NewBC(da)
	bc.FreeSlipBox(da, ptatin3d.XMin, ptatin3d.XMax, ptatin3d.YMin, ptatin3d.YMax, ptatin3d.ZMin)
	p := ptatin3d.NewProblem(da, bc)
	p.Gravity = [3]float64{0, 0, -1}
	p.SetCoefficientsFunc(
		func(x, y, z float64) float64 { return 1 },
		func(x, y, z float64) float64 {
			if z > 0.5 {
				return 1.1
			}
			return 1
		})
	cfg := ptatin3d.DefaultStokesConfig()
	cfg.Levels = 2
	s, err := ptatin3d.NewStokesSolver(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := make(ptatin3d.Vec, da.NVelDOF())
	ptatin3d.MomentumRHS(p, bu)
	x := make(ptatin3d.Vec, s.Op.N())
	res := s.Solve(x, bu, nil)
	if !res.Converged {
		t.Fatalf("custom solve failed after %d its", res.Iterations)
	}
}

// TestFacadePerfModel sanity-checks the exposed Table-I cost model.
func TestFacadePerfModel(t *testing.T) {
	paper := ptatin3d.PaperTableI()
	repro := ptatin3d.ReproOpCounts()
	if len(paper) != 4 || len(repro) != 4 {
		t.Fatalf("unexpected row counts: %d, %d", len(paper), len(repro))
	}
	// The qualitative Table-I ordering holds for both.
	for _, rows := range [][]ptatin3d.OpCounts{paper, repro} {
		var mf, tens ptatin3d.OpCounts
		for _, r := range rows {
			switch r.Name {
			case "Matrix-free":
				mf = r
			case "Tensor":
				tens = r
			}
		}
		if tens.Flops >= mf.Flops {
			t.Fatal("tensor kernel must do fewer flops")
		}
	}
}

// TestFacadeLithologyTable exercises the rheology surface.
func TestFacadeLithologyTable(t *testing.T) {
	tab := ptatin3d.LithologyTable{
		{Name: "a", Type: ptatin3d.ConstantViscosity, Eta0: 2, Rho0: 5},
		{Name: "b", Type: ptatin3d.FrankKamenetskii, Eta0: 10, N: 1, E: math.Log(100)},
	}
	if tab.Eta(0, ptatin3d.RheologyState{}) != 2 {
		t.Fatal("constant law broken")
	}
	hot := tab.Eta(1, ptatin3d.RheologyState{StrainRateII: 1, Temperature: 1})
	cold := tab.Eta(1, ptatin3d.RheologyState{StrainRateII: 1, Temperature: 0})
	if cold/hot < 99 || cold/hot > 101 {
		t.Fatalf("FK contrast %v, want 100", cold/hot)
	}
}

// TestFacadeThermal exercises the exposed energy-equation solver.
func TestFacadeThermal(t *testing.T) {
	da := ptatin3d.NewMesh(3, 3, 3, 0, 1, 0, 1, 0, 1)
	p := ptatin3d.NewProblem(da, nil)
	ts := ptatin3d.NewThermalSolver(p, 1.0)
	ts.SetFaceTemperature(ptatin3d.ZMin, 0)
	ts.SetFaceTemperature(ptatin3d.ZMax, 1)
	T := make([]float64, da.NVertices())
	for i := 0; i < 30; i++ {
		if err := ts.Step(T, nil, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	mid := da.VertexID(1, 1, 1) // z = 1/3 plane... vertex (1,1,1) has z=1/3
	want := 1.0 / 3
	if math.Abs(T[mid]-want) > 0.02 {
		t.Fatalf("conduction profile T=%v, want %v", T[mid], want)
	}
}
