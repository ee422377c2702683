// Command ptatin-opcost regenerates Table I of the paper: per-element
// flop and byte counts of the four viscous-operator application
// strategies, the measured machine balance, roofline-predicted times, and
// measured wall times of this implementation's kernels.
//
// Usage:
//
//	ptatin-opcost [-m 16] [-workers 4] [-reps 5] [-telemetry] [-cpuprofile out.pprof]
//
// The measured table — one row per op.Kind built through op.New, apply and
// set-up time beside the roofline — is the representation study behind the
// fixed hierarchy layout (op.Layout); run it at several -m for the
// per-size picture.
//
// With -telemetry the tool additionally runs a multigrid-preconditioned
// Stokes solve on the same deformed mesh and emits the telemetry registry
// twice: a Table-IV-shaped per-component breakdown (calls / wall time /
// time per call, including per-MG-level smoother and operator counts) and
// the full JSON snapshot.
//
// The V-cycle is measured level by level, in the time loop it runs in, by
// the repository benchmark (the mg.* metrics of bench/).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
	"ptatin3d/internal/perfmodel"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

func main() {
	m := flag.Int("m", 16, "elements per direction")
	workers := flag.Int("workers", 0, "worker goroutines (0 = runtime.NumCPU())")
	reps := flag.Int("reps", 5, "timing repetitions (best-of)")
	telFlag := flag.Bool("telemetry", false, "run an instrumented MG Stokes solve and emit the telemetry table + JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	*workers = cli.Workers(*workers)

	if *cpuprofile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	p := benchProblem(*m, *workers)
	da := p.DA

	nel := float64(da.NElements())
	n := da.NVelDOF()
	u := la.NewVec(n)
	for i := range u {
		u[i] = math.Sin(float64(i))
	}
	y := la.NewVec(n)

	fmt.Printf("# Table I reproduction — %d³ Q2 elements (%d velocity dofs), %d workers\n",
		*m, n, *workers)

	fmt.Println("\n## Machine balance (measured)")
	mach := perfmodel.MeasureMachine()
	fmt.Printf("stream triad bandwidth: %8.2f GB/s\n", mach.StreamBW/1e9)
	fmt.Printf("scalar flop throughput: %8.2f GF/s\n", mach.FlopRate/1e9)
	fmt.Printf("balance:                %8.2f flops/byte\n", mach.FlopRate/mach.StreamBW)

	fmt.Println("\n## Analytic per-element counts")
	fmt.Printf("%-14s %10s %16s %16s %10s %10s\n",
		"operator", "flops", "bytes(perfect)", "bytes(pessimal)", "AI(perf)", "AI(pess)")
	fmt.Println("paper (Edison, Table I):")
	for _, c := range perfmodel.PaperTableI() {
		fmt.Printf("%-14s %10.0f %16.0f %16.0f %10.1f %10.1f\n",
			c.Name, c.Flops, c.BytesPerfect, c.BytesPessimal,
			c.ArithmeticIntensity(true), c.ArithmeticIntensity(false))
	}
	fmt.Println("this implementation:")
	repro := perfmodel.ReproCounts()
	for _, c := range repro {
		fmt.Printf("%-14s %10.0f %16.0f %16.0f %10.1f %10.1f\n",
			c.Name, c.Flops, c.BytesPerfect, c.BytesPessimal,
			c.ArithmeticIntensity(true), c.ArithmeticIntensity(false))
	}

	// Operator applications: each Table I row is one op.Kind, built through
	// op.New in the order of perfmodel.ReproCounts. The TensorC row is the
	// resident stored-coefficient kernel (fem.Resident), the one the
	// V-cycle smooths with.
	type variant struct {
		name  string
		apply func()
		setup time.Duration
	}
	var variants []variant
	for _, row := range []struct {
		name string
		kind op.Kind
	}{
		{"Assembled", op.Assembled}, {"Matrix-free", op.MFRef},
		{"Tensor", op.Tensor}, {"TensorC", op.TensorC},
	} {
		o, err := op.New(row.kind, op.Env{Prob: p, Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := o.Setup(); err != nil {
			log.Fatal(err)
		}
		variants = append(variants, variant{row.name, func() { o.Apply(u, y) }, time.Since(t0)})
	}

	fmt.Println("\n## Measured operator application (best of", *reps, "reps)")
	fmt.Printf("%-14s %12s %12s %14s %14s %12s\n",
		"operator", "time(ms)", "GF/s", "roofline(ms)", "bound", "setup(ms)")
	for i, v := range variants {
		v.apply() // warm up
		best := time.Duration(1 << 62)
		for r := 0; r < *reps; r++ {
			start := time.Now()
			v.apply()
			if el := time.Since(start); el < best {
				best = el
			}
		}
		c := repro[i]
		roof := mach.RooflineTime(c, true) * nel
		bound := "compute"
		if mach.MemoryBound(c, true) {
			bound = "memory"
		}
		gfs := c.Flops * nel / best.Seconds() / 1e9
		fmt.Printf("%-14s %12.3f %12.2f %14.3f %14s %12.1f\n",
			v.name, float64(best.Microseconds())/1000, gfs, roof*1e3, bound,
			float64(v.setup.Microseconds())/1000)
	}
	fmt.Println("\nShape check (paper): Tensor < Matrix-free < Assembled in time;")
	fmt.Println("assembled SpMV memory-bound, matrix-free kernels compute-bound.")
	fmt.Println("TensorC times the resident kernel (op.TensorC / fem.Resident).")

	if *telFlag {
		runTelemetrySolve(p, *workers)
	}
}

// runTelemetrySolve performs one multigrid-preconditioned Stokes solve on
// the Table-I mesh with the full telemetry stack enabled and emits the
// registry as a Table-IV-shaped breakdown plus the JSON snapshot.
func runTelemetrySolve(p *fem.Problem, workers int) {
	reg := telemetry.New()
	par.SetTelemetry(reg.Root().Child("par"))
	defer par.SetTelemetry(nil)
	fem.SetTelemetry(reg.Root().Child("fem"))
	defer fem.SetTelemetry(nil)

	// Give the Table-I problem a nontrivial body force so the solve has a
	// real RHS: variable density under vertical gravity.
	eta := func(x, y, z float64) float64 {
		return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y))
	}
	rho := func(x, y, z float64) float64 {
		return 1 + 0.5*math.Sin(math.Pi*x)*math.Sin(math.Pi*y)*math.Sin(math.Pi*z)
	}
	p.Gravity = [3]float64{0, 0, -9.8}
	p.SetCoefficientsFunc(eta, rho)

	cfg := stokes.DefaultConfig()
	cfg.Workers = workers
	cfg.Telemetry = reg.Root()
	cfg.CoeffCoarsen = mg.FuncCoeffCoarsener(eta, rho)
	// Clamp MG depth to what the mesh supports (each level halves m).
	mEl := p.DA.Mx
	levels := 1
	for c := mEl; c%2 == 0 && c > 2 && levels < 3; c /= 2 {
		levels++
	}
	if levels < 2 {
		fmt.Fprintf(os.Stderr, "telemetry solve skipped: m=%d cannot coarsen\n", mEl)
		return
	}
	cfg.Levels = levels

	s, err := stokes.New(p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	res := s.Solve(x, bu, nil)

	fmt.Printf("\n## Instrumented MG Stokes solve (%d levels): converged=%v its=%d rel=%.2e\n",
		levels, res.Converged, res.Iterations, res.Residual/res.Residual0)
	fmt.Println("\n## Telemetry breakdown (Table-IV shape)")
	reg.WriteTable(os.Stdout)
	fmt.Println("\n## Telemetry (JSON)")
	if err := reg.WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// benchProblem builds the Table-I deformed variable-viscosity problem at
// size m.
func benchProblem(m, workers int) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*math.Sin(math.Pi*y), y + 0.04*math.Sin(math.Pi*z), z + 0.03*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := fem.NewProblem(da, bc)
	p.Workers = workers
	p.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y))
	}, nil)
	return p
}
