// Rifting: a reduced-scale version of the paper's §V continental rifting
// model — visco-plastic crust over a temperature-dependent mantle, a
// damage seed, symmetric extension, thermal evolution and a deforming
// free surface. Prints the Figure-4-style per-step solver statistics and
// writes a final snapshot.
//
// The model comes from the scenario registry; the command-line
// equivalent (including a rank-distributed variant) is
//
//	go run ./cmd/ptatin-run -scenario rift -res 16,4,8 -steps 5
//	go run ./cmd/ptatin-run -scenario rift -res 16,4,8 -steps 5 -ranks 2x1x1
//
//	go run ./examples/rifting
package main

import (
	"fmt"
	"log"

	"ptatin3d"
)

func main() {
	spec, err := ptatin3d.GetScenario("rift")
	if err != nil {
		log.Fatal(err)
	}
	spec.Resolution = [3]int{16, 4, 8} // paper: 256×32×128
	spec.Solver.Levels = 0             // re-derive the hierarchy for the reduced grid
	// Weak lower crust (the paper's §V conclusion: favours wide, oblique
	// margins; raise towards ~0.5 for ridge jumps / transform margins).
	spec.Lithologies[1].Eta0 = 0.05

	m, err := ptatin3d.CompileScenario(spec, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rift: %d elements, %d points, domain 1200×200×600 km (nondim 12×2×6)\n",
		m.Prob.DA.NElements(), m.Points.Len())

	const steps = 5
	for i := 0; i < steps; i++ {
		if err := m.StepForward(); err != nil {
			log.Fatal(err)
		}
		st := m.Stats[len(m.Stats)-1]
		fmt.Printf("step %d: t=%.3f (≈%.1f kyr) nonlinear=%d krylov=%d |F| %.2e -> %.2e topo=[%.4f, %.4f]\n",
			st.Step, st.Time, st.Time*1e4, st.NewtonIts, st.KrylovIts,
			st.FNorm0, st.FNorm, st.TopoMin, st.TopoMax)
	}

	// Total accumulated plastic strain — the damage field that localizes
	// into rift-bounding shear zones.
	var plastic float64
	for i := 0; i < m.Points.Len(); i++ {
		plastic += m.Points.Plastic[i]
	}
	fmt.Printf("total accumulated plastic strain: %.3f over %d points\n", plastic, m.Points.Len())

	if err := m.WriteVTK("rift_grid.vtk"); err != nil {
		log.Fatal(err)
	}
	if err := m.WritePointsVTK("rift_points.vtk"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote rift_grid.vtk and rift_points.vtk")
}
