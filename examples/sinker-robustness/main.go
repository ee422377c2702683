// Sinker robustness: the Figure-2 experiment of the paper — solve the
// heterogeneous Stokes problem at increasing viscosity contrast Δη and
// watch the vertical-momentum and pressure residuals equilibrate before
// global convergence sets in. Uses the solver-level API rather than the
// time-stepping driver; the command-line equivalent is
//
//	go run ./cmd/ptatin-tables fig2 -m 8
//
//	go run ./examples/sinker-robustness
package main

import (
	"fmt"
	"log"

	"ptatin3d"
)

func main() {
	for _, deta := range []float64{1, 100, 10000} {
		opts := ptatin3d.DefaultSinkerOptions()
		opts.M = 8
		opts.DeltaEta = deta
		m, err := ptatin3d.CompileScenario(ptatin3d.SinkerScenario(opts), 2)
		if err != nil {
			log.Fatal(err)
		}

		// The solver the time loop would build for this model — the paper's
		// production configuration: GCR wrapped around the block
		// lower-triangular field-split preconditioner, one V(2,2) geometric
		// multigrid cycle on the viscous block, GAMG coarse solve — with a
		// larger iteration budget, and the load vector that goes with it.
		solver, bu, err := m.LinearStokes(func(c *ptatin3d.StokesConfig) { c.Params.MaxIt = 800 })
		if err != nil {
			log.Fatal(err)
		}
		x := make(ptatin3d.Vec, solver.Op.N())
		mon := &ptatin3d.Monitor{}
		res := solver.Solve(x, bu, mon)

		fmt.Printf("Δη = %-7g converged=%-5v iterations=%-4d rel.residual=%.2e\n",
			deta, res.Converged, res.Iterations, res.Residual/res.Residual0)
		// Print the equilibration phase: the pressure residual starts at
		// zero and must rise to the momentum residual's level.
		maxP, itMax := 0.0, 0
		for i, p := range mon.Pressure {
			if p > maxP {
				maxP, itMax = p, mon.Iter[i]
			}
		}
		fmt.Printf("    vertical momentum residual at start: %.3e\n", mon.Vertical[0])
		fmt.Printf("    pressure residual peaks at %.3e (iteration %d)\n", maxP, itMax)
	}
}
