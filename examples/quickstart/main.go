// Quickstart: run three time steps of the paper's sedimentation
// benchmark (§IV-A) — eight dense viscous spheres sinking through a less
// viscous fluid under a free surface — and write ParaView-loadable VTK
// output.
//
// Models are selected from the scenario registry and compiled from
// their declarative specs; the command-line equivalent of this program
// is
//
//	go run ./cmd/ptatin-run -scenario sinker -steps 3
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ptatin3d"
)

func main() {
	spec, err := ptatin3d.GetScenario("sinker")
	if err != nil {
		log.Fatal(err)
	}
	spec.Resolution = [3]int{8, 8, 8} // 8³ Q2 elements (the paper uses 64³ on a Cray)

	m, err := ptatin3d.CompileScenario(spec, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sinker: %d elements, %d material points, %d velocity dofs\n",
		m.Prob.DA.NElements(), m.Points.Len(), m.Prob.DA.NVelDOF())

	for step := 0; step < 3; step++ {
		if err := m.StepForward(); err != nil {
			log.Fatal(err)
		}
		st := m.Stats[len(m.Stats)-1]
		fmt.Printf("step %d: t=%.4f dt=%.4f nonlinear=%d krylov=%d |F| %.2e -> %.2e\n",
			st.Step, st.Time, st.Dt, st.NewtonIts, st.KrylovIts, st.FNorm0, st.FNorm)
	}

	if err := m.WriteVTK("quickstart_grid.vtk"); err != nil {
		log.Fatal(err)
	}
	if err := m.WritePointsVTK("quickstart_points.vtk"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart_grid.vtk and quickstart_points.vtk")
}
