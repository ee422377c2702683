package thermal

import (
	"math"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

func thermalProblem(m int) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	return fem.NewProblem(da, nil)
}

// TestSteadyConduction: with fixed temperatures at ymin/ymax and many
// implicit steps, the solution approaches the linear conduction profile.
func TestSteadyConduction(t *testing.T) {
	p := thermalProblem(4)
	s := New(p, 1.0)
	s.SetFaceTemperature(mesh.YMin, 0)
	s.SetFaceTemperature(mesh.YMax, 1)
	T := make([]float64, p.DA.NVertices())
	for i := 0; i < 60; i++ {
		if err := s.Step(T, nil, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for v := range T {
		_, j, _ := p.DA.VertexIJK(v)
		y := float64(j) / float64(p.DA.My)
		if math.Abs(T[v]-y) > 2e-3 {
			t.Fatalf("vertex %d: T=%v, want %v", v, T[v], y)
		}
	}
}

// TestDiffusionDecay: an interior hot spot decays monotonically and
// conserves positivity-ish behaviour (no new extrema beyond roundoff).
func TestDiffusionDecay(t *testing.T) {
	p := thermalProblem(4)
	s := New(p, 0.1)
	// Fixed zero on all faces.
	for _, f := range []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax} {
		s.SetFaceTemperature(f, 0)
	}
	T := make([]float64, p.DA.NVertices())
	centre := p.DA.VertexID(2, 2, 2)
	T[centre] = 1
	prevMax := 1.0
	for i := 0; i < 10; i++ {
		if err := s.Step(T, nil, 0.05); err != nil {
			t.Fatal(err)
		}
		max := 0.0
		for _, v := range T {
			if v > max {
				max = v
			}
		}
		if max > prevMax+1e-12 {
			t.Fatalf("step %d: maximum grew %v -> %v", i, prevMax, max)
		}
		prevMax = max
	}
	if prevMax > 0.5 {
		t.Fatalf("hot spot did not decay: %v", prevMax)
	}
}

// advectFront drives an advection-dominated problem with an unresolvable
// outflow boundary layer (hot inflow, cold Dirichlet outflow, cell Péclet
// ≫ 1) to near-steady state and returns the worst violation of the
// [0, 1] maximum principle — the classic setting where the plain Galerkin
// method produces node-to-node oscillations and SUPG does not.
func advectFront(t *testing.T, supg bool) (overshoot float64) {
	t.Helper()
	p := thermalProblem(8)
	s := New(p, 1e-6) // cell Péclet ≈ 6·10⁴
	s.SUPG = supg
	s.SetFaceTemperature(mesh.XMin, 1)
	s.SetFaceTemperature(mesh.XMax, 0)
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 1 // uniform +x velocity
	}
	T := make([]float64, p.DA.NVertices())
	for i := 0; i < 30; i++ {
		if err := s.Step(T, u, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range T {
		if v > 1 && v-1 > overshoot {
			overshoot = v - 1
		}
		if v < 0 && -v > overshoot {
			overshoot = -v
		}
	}
	return overshoot
}

// TestSUPGSuppressesOscillations (ablation): the outflow boundary layer
// makes the unstabilized Galerkin solution oscillate; SUPG keeps the
// violation of the maximum principle small.
func TestSUPGSuppressesOscillations(t *testing.T) {
	with := advectFront(t, true)
	without := advectFront(t, false)
	if with > 0.1 {
		t.Fatalf("SUPG solution overshoots by %v", with)
	}
	if without < 5*with || without < 0.05 {
		t.Fatalf("stabilization made no difference: with %v, without %v", with, without)
	}
}

// TestAdvectionTransportsFront: after enough time the front reaches the
// middle of the domain with roughly the inflow value behind it.
func TestAdvectionTransportsFront(t *testing.T) {
	p := thermalProblem(8)
	s := New(p, 1e-6)
	s.SetFaceTemperature(mesh.XMin, 1)
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 1
	}
	T := make([]float64, p.DA.NVertices())
	for i := 0; i < 20; i++ { // t = 1.0: front crosses the whole box
		if err := s.Step(T, u, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	mid := p.DA.VertexID(4, 4, 4)
	if T[mid] < 0.8 {
		t.Fatalf("front did not arrive: T(mid) = %v", T[mid])
	}
}

// TestTemperatureAt: interpolation reproduces a trilinear vertex field.
func TestTemperatureAt(t *testing.T) {
	p := thermalProblem(2)
	T := make([]float64, p.DA.NVertices())
	for v := range T {
		i, j, k := p.DA.VertexIJK(v)
		x, y, z := p.DA.NodeCoords(p.DA.VertexNode(i, j, k))
		T[v] = 1 + 2*x - y + 3*z
	}
	// Element 0 spans [0,0.5]³; reference (0,0,0) is its centre (0.25...).
	c := p.Cursor(nil, T)
	c.Seek(0)
	got := TemperatureAt(&c, 0, 0, 0)
	want := 1 + 2*0.25 - 0.25 + 3*0.25
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("T = %v, want %v", got, want)
	}
}
