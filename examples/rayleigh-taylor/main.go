// Rayleigh–Taylor: author a custom geodynamic model as a declarative
// scenario spec rather than hand-assembling mesh/BC/points/driver — a
// dense layer over a buoyant layer with a sinusoidal interface
// perturbation, the classic instability benchmark of the MPM/marker
// literature the paper builds on. Demonstrates: a Spec literal with a
// lithology table, a perturbed-layer geometry primitive, free-slip
// boundary conditions, and compilation into the time-stepping model.
//
// The same model ships in the built-in registry, so this is equivalent
// to
//
//	go run ./cmd/ptatin-run -scenario rayleigh-taylor -steps 4
//
// and the spec below could equally be saved as JSON (see
// `ptatin-run -print-spec`) and run with `-scenario file.json`.
// (ptatin3d.NewMesh/NewProblem/NewPointLattice assemble by hand what
// the spec schema cannot express.)
//
//	go run ./examples/rayleigh-taylor
package main

import (
	"fmt"
	"log"

	"ptatin3d"
	"ptatin3d/internal/scenario"
)

func main() {
	boolFalse := false
	spec := ptatin3d.Scenario{
		Name:        "rt-custom",
		Description: "dense layer over a buoyant half-space, cosine interface perturbation",
		Domain:      scenario.Box{X1: 1, Y1: 1, Z1: 1},
		Resolution:  [3]int{8, 8, 8},
		PPE:         3,
		Gravity:     [3]float64{0, 0, -9.8},
		// Free surface on top (z max), free slip everywhere else.
		VerticalAxis: 2,
		FreeSurface:  true,
		CFL:          0.25,
		Lithologies: []scenario.LithologySpec{
			{Name: "buoyant", Type: "constant", Eta0: 0.01, Rho0: 1.0},
			{Name: "dense", Type: "constant", Eta0: 1.0, Rho0: 1.3},
		},
		// Dense layer on top of a light layer; perturbed interface at
		// z = 0.5 + 0.04·cos(2πx).
		Geometry: []scenario.Primitive{{
			Kind: "layer", Litho: 1, Axis: 2, From: 0.5, To: 1.5,
			PerturbAmp: 0.04, PerturbAxis: 0, PerturbMode: 1,
		}},
		BCs: []scenario.BCSpec{
			{Face: "xmin", Kind: "freeslip"}, {Face: "xmax", Kind: "freeslip"},
			{Face: "ymin", Kind: "freeslip"}, {Face: "ymax", Kind: "freeslip"},
			{Face: "zmin", Kind: "freeslip"},
		},
		Nonlinear: scenario.NonlinearSpec{MaxIt: 2, RTol: 1e-5, EisenstatWalker: &boolFalse},
	}

	model, err := ptatin3d.CompileScenario(spec, 2)
	if err != nil {
		log.Fatal(err)
	}
	points := model.Points

	// Track the instability: mean depth of the dense material grows as
	// the overburden founders.
	meanDenseZ := func() float64 {
		var s float64
		var n int
		for i := 0; i < points.Len(); i++ {
			if points.Litho[i] == 1 {
				s += points.Z[i]
				n++
			}
		}
		return s / float64(n)
	}
	fmt.Printf("initial mean dense-layer height: %.4f\n", meanDenseZ())
	for step := 0; step < 4; step++ {
		if err := model.StepForward(); err != nil {
			log.Fatal(err)
		}
		st := model.Stats[len(model.Stats)-1]
		fmt.Printf("step %d: t=%.4f dt=%.4f krylov=%d mean dense z=%.4f\n",
			st.Step, st.Time, st.Dt, st.KrylovIts, meanDenseZ())
	}
	if err := model.WritePointsVTK("rayleigh_taylor_points.vtk"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote rayleigh_taylor_points.vtk")
}
