package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSinkerThreeSteps is the paper's §IV-A experiment at reduced scale:
// three time steps of the sedimentation model. The spheres must descend,
// every step's Stokes solve must converge, and the material-point
// population must track the mesh.
func TestSinkerThreeSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultSinkerOptions()
	o.M = 8
	o.DeltaEta = 100
	m := MustCompile(Sinker(o), 2)

	// Mean sphere height before.
	meanZ := func() float64 {
		var s float64
		var n int
		for i := 0; i < m.Points.Len(); i++ {
			if m.Points.Litho[i] == 1 {
				s += m.Points.Z[i]
				n++
			}
		}
		return s / float64(n)
	}
	z0 := meanZ()
	for step := 0; step < 3; step++ {
		if err := m.StepForward(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		st := m.Stats[len(m.Stats)-1]
		if !st.Converged {
			t.Fatalf("step %d: nonlinear solve did not converge (|F| %e -> %e)", step, st.FNorm0, st.FNorm)
		}
		if st.Dt <= 0 {
			t.Fatalf("step %d: dt = %v", step, st.Dt)
		}
	}
	z1 := meanZ()
	if z1 >= z0 {
		t.Fatalf("spheres did not sediment: mean z %v -> %v", z0, z1)
	}
	if m.StepNum != 3 || len(m.Stats) != 3 {
		t.Fatalf("step accounting: %d steps, %d stats", m.StepNum, len(m.Stats))
	}
	if m.Points.Len() == 0 {
		t.Fatal("all points lost")
	}
}

// TestSinkerLinearRheologyConvergesInOnePicard: constant per-lithology
// viscosities make the problem (nearly) linear — the first nonlinear
// iteration must essentially solve it.
func TestSinkerLinearRheologyFastNonlinear(t *testing.T) {
	o := DefaultSinkerOptions()
	o.M = 4
	m := MustCompile(Sinker(o), 1)
	m.Cfg.Levels = 2
	res, err := m.SolveStokes()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("nonlinear solve failed: %+v", res)
	}
	if res.Iterations > 2 {
		t.Fatalf("linear rheology took %d nonlinear iterations", res.Iterations)
	}
}

// TestRiftSingleStep: one time step of the reduced rifting model — the
// full pipeline including plasticity, Newton linearization, thermal
// solve, free surface and the CG+ASM coarse solver.
func TestRiftSingleStep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultRiftOptions()
	o.Mx, o.My, o.Mz = 16, 4, 8
	m := MustCompile(Rift(o), 2)
	if err := m.StepForward(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats[0]
	// The paper reports early-step Newton failure (max its exceeded) is
	// acceptable; require only that the residual dropped and nothing blew
	// up.
	if st.FNorm >= st.FNorm0 {
		t.Fatalf("rift residual did not drop: %e -> %e", st.FNorm0, st.FNorm)
	}
	if st.NewtonIts < 1 || st.NewtonIts > 5 {
		t.Fatalf("Newton its = %d", st.NewtonIts)
	}
	if st.KrylovIts == 0 {
		t.Fatal("no Krylov work recorded")
	}
	// Extension must thin the domain: surface subsides on average.
	if st.TopoMax > 2.001 && st.TopoMin < 1.9 {
		t.Fatalf("implausible topography [%v, %v]", st.TopoMin, st.TopoMax)
	}
	// Temperature stays in [0,1] (maximum principle, fixed BCs).
	for _, v := range m.Temp {
		if v < -1e-6 || v > 1+1e-6 {
			t.Fatalf("temperature out of range: %v", v)
		}
	}
}

// TestRiftYieldingActivates: the extension drives the crust to yield
// somewhere (plastic strain accumulates after a step).
func TestRiftYieldingActivates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultRiftOptions()
	o.Mx, o.My, o.Mz = 16, 4, 8
	m := MustCompile(Rift(o), 2)
	// Sum of plastic strain before (seed damage only).
	var before float64
	for i := 0; i < m.Points.Len(); i++ {
		before += m.Points.Plastic[i]
	}
	if err := m.StepForward(); err != nil {
		t.Fatal(err)
	}
	var after float64
	for i := 0; i < m.Points.Len(); i++ {
		after += m.Points.Plastic[i]
	}
	if after <= before {
		t.Fatalf("no plastic strain accumulated: %v -> %v", before, after)
	}
}

// TestVTKOutput: the writers emit well-formed files with the advertised
// sections.
func TestVTKOutput(t *testing.T) {
	o := DefaultSinkerOptions()
	o.M = 4
	m := MustCompile(Sinker(o), 1)
	m.Cfg.Levels = 2
	if _, err := m.SolveStokes(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	grid := filepath.Join(dir, "grid.vtk")
	if err := m.WriteVTK(grid); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(grid)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{"STRUCTURED_GRID", "VECTORS velocity", "SCALARS viscosity", "SCALARS density", "SCALARS pressure"} {
		if !strings.Contains(s, want) {
			t.Fatalf("grid VTK missing %q", want)
		}
	}
	ptsPath := filepath.Join(dir, "points.vtk")
	if err := m.WritePointsVTK(ptsPath); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(ptsPath)
	if err != nil {
		t.Fatal(err)
	}
	s = string(b)
	for _, want := range []string{"POLYDATA", "SCALARS lithology", "SCALARS plastic_strain"} {
		if !strings.Contains(s, want) {
			t.Fatalf("points VTK missing %q", want)
		}
	}
	sl := filepath.Join(dir, "stream.vtk")
	seeds := [][3]float64{{0.3, 0.5, 0.8}, {0.7, 0.5, 0.8}}
	if err := m.WriteStreamlinesVTK(sl, seeds, 0.01, 200); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(sl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "LINES") {
		t.Fatal("streamline VTK missing LINES")
	}
}

// TestStreamlineStaysInDomain: traced streamlines never leave the box.
func TestStreamlineStaysInDomain(t *testing.T) {
	o := DefaultSinkerOptions()
	o.M = 4
	m := MustCompile(Sinker(o), 1)
	m.Cfg.Levels = 2
	if _, err := m.SolveStokes(); err != nil {
		t.Fatal(err)
	}
	line := m.Streamline(0.4, 0.4, 0.7, 0.02, 300)
	if len(line) < 2 {
		t.Fatal("streamline too short")
	}
	for _, p := range line {
		for c := 0; c < 3; c++ {
			if p[c] < -1e-9 || p[c] > 1+1e-9 {
				t.Fatalf("streamline left the domain at %v", p)
			}
		}
	}
}

// TestPopulationControlInStep: with outflow boundaries the sinker loses
// points; population control keeps every element populated.
func TestPopulationControlInStep(t *testing.T) {
	o := DefaultSinkerOptions()
	o.M = 4
	o.PPE = 2
	m := MustCompile(Sinker(o), 1)
	m.Cfg.Levels = 2
	m.MinPointsPerElement = 2
	for i := 0; i < 2; i++ {
		if err := m.StepForward(); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[int]int)
	for i := 0; i < m.Points.Len(); i++ {
		counts[int(m.Points.Elem[i])]++
	}
	for e := 0; e < m.Prob.DA.NElements(); e++ {
		if counts[e] < 2 {
			t.Fatalf("element %d has %d points despite population control", e, counts[e])
		}
	}
}
