package main

import (
	"fmt"
	"math"
	"time"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/op"
	"ptatin3d/internal/perfmodel"
)

// table1 regenerates Table I: per-element flop and byte counts of the four
// viscous-operator application strategies, the measured machine balance,
// roofline-predicted times, and measured wall times of this
// implementation's kernels — one row per op.Kind built through op.New,
// apply and set-up time beside the roofline. It is the representation
// study behind the fixed hierarchy layout (op.Layout); run it at several
// -m for the per-size picture. (The V-cycle is measured level by level,
// in the time loop it runs in, by the mg.* metrics of bench/; the
// per-component breakdown of a whole solve is table4 -telemetry.)
func table1(c *ctx) error {
	m := &c.sinkerFlags("m").M
	reps := c.fs.Int("reps", 5, "timing repetitions (best-of)")
	c.Register(c.fs, "workers", "cpuprofile")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()
	out, workers := c.stdout, c.Workers

	p := tableIProblem(*m, workers)
	da := p.DA
	nel := float64(da.NElements())
	n := da.NVelDOF()
	u := la.NewVec(n)
	for i := range u {
		u[i] = math.Sin(float64(i))
	}
	y := la.NewVec(n)

	fmt.Fprintf(out, "# Table I reproduction — %d³ Q2 elements (%d velocity dofs), %d workers\n", *m, n, workers)

	fmt.Fprintln(out, "\n## Machine balance (measured)")
	mach := perfmodel.MeasureMachine()
	fmt.Fprintf(out, "stream triad bandwidth: %8.2f GB/s\n", mach.StreamBW/1e9)
	fmt.Fprintf(out, "scalar flop throughput: %8.2f GF/s\n", mach.FlopRate/1e9)
	fmt.Fprintf(out, "balance:                %8.2f flops/byte\n", mach.FlopRate/mach.StreamBW)

	fmt.Fprintln(out, "\n## Analytic per-element counts")
	fmt.Fprintf(out, "%-14s %10s %16s %16s %10s %10s\n",
		"operator", "flops", "bytes(perfect)", "bytes(pessimal)", "AI(perf)", "AI(pess)")
	counts := func(rows []perfmodel.OpCounts) {
		for _, c := range rows {
			fmt.Fprintf(out, "%-14s %10.0f %16.0f %16.0f %10.1f %10.1f\n",
				c.Name, c.Flops, c.BytesPerfect, c.BytesPessimal,
				c.ArithmeticIntensity(true), c.ArithmeticIntensity(false))
		}
	}
	fmt.Fprintln(out, "paper (Edison, Table I):")
	counts(perfmodel.PaperTableI())
	fmt.Fprintln(out, "this implementation:")
	repro := perfmodel.ReproCounts()
	counts(repro)

	// Each Table I row is one op.Kind, built through op.New in the order
	// of perfmodel.ReproCounts. The TensorC row is the resident
	// stored-coefficient kernel (fem.Resident), the one the V-cycle
	// smooths with.
	fmt.Fprintln(out, "\n## Measured operator application (best of", *reps, "reps)")
	fmt.Fprintf(out, "%-14s %12s %12s %14s %14s %12s\n",
		"operator", "time(ms)", "GF/s", "roofline(ms)", "bound", "setup(ms)")
	for i, row := range []struct {
		name string
		kind op.Kind
	}{
		{"Assembled", op.Assembled}, {"Matrix-free", op.MFRef},
		{"Tensor", op.Tensor}, {"TensorC", op.TensorC},
	} {
		o, err := op.New(row.kind, op.Env{Prob: p, Workers: workers})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := o.Setup(); err != nil {
			return err
		}
		setup := time.Since(t0)
		o.Apply(u, y) // warm up
		best := time.Duration(1 << 62)
		for r := 0; r < *reps; r++ {
			start := time.Now()
			o.Apply(u, y)
			best = min(best, time.Since(start))
		}
		cnt := repro[i]
		bound := "compute"
		if mach.MemoryBound(cnt, true) {
			bound = "memory"
		}
		fmt.Fprintf(out, "%-14s %12.3f %12.2f %14.3f %14s %12.1f\n",
			row.name, float64(best.Microseconds())/1000, cnt.Flops*nel/best.Seconds()/1e9,
			mach.RooflineTime(cnt, true)*nel*1e3, bound, float64(setup.Microseconds())/1000)
	}
	fmt.Fprintln(out, "\nShape check (paper): Tensor < Matrix-free < Assembled in time;")
	fmt.Fprintln(out, "assembled SpMV memory-bound, matrix-free kernels compute-bound.")
	fmt.Fprintln(out, "TensorC times the resident kernel (op.TensorC / fem.Resident).")
	return nil
}

// tableIProblem builds the Table-I deformed variable-viscosity problem at
// size m.
func tableIProblem(m, workers int) *fem.Problem {
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
