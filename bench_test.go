// Benchmarks regenerating every table and figure of the paper (see
// EXPERIMENTS.md for the recorded results and the paper-vs-measured
// comparison, and DESIGN.md for the scale substitutions):
//
//	Table I   BenchmarkTableI_*        operator application variants
//	Fig. 1    BenchmarkFig1_*          sinker streamline tracing
//	Fig. 2    BenchmarkFig2_*          robustness vs viscosity contrast
//	Table II  BenchmarkTableII_*       SpMV variants, full Stokes solve
//	Table III BenchmarkTableIII_*      fine-level residual (MG res)
//	Table IV  BenchmarkTableIV_*       preconditioner configurations
//	Fig. 3/4  BenchmarkFig4_RiftStep   one rift time step (full pipeline)
//	          BenchmarkAblation_*      design-choice ablations
//
// Run a single family with e.g.
//
//	go test -bench 'TableIV' -benchmem .
package ptatin3d_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
	"ptatin3d/internal/thermal"
)

// benchProblem builds a deformed, variable-viscosity viscous-block
// problem for the operator benchmarks.
func benchProblem(m int) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*math.Sin(math.Pi*y), y + 0.04*math.Sin(math.Pi*z), z + 0.03*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := fem.NewProblem(da, bc)
	p.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y))
	}, nil)
	return p
}

// opBench times repeated operator applications.
func opBench(b *testing.B, op interface {
	N() int
	Apply(x, y la.Vec)
}) {
	u := la.NewVec(op.N())
	for i := range u {
		u[i] = math.Sin(float64(i))
	}
	y := la.NewVec(op.N())
	op.Apply(u, y) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(u, y)
	}
}

// --- Table I -----------------------------------------------------------

// opKind builds one representation through op.New, as bench/ and
// ptatin-opcost do, and sets it up.
func opKind(b *testing.B, p *fem.Problem, k op.Kind) op.Operator {
	o, err := op.New(k, op.Env{Prob: p})
	if err != nil {
		b.Fatal(err)
	}
	if err := o.Setup(); err != nil {
		b.Fatal(err)
	}
	return o
}

func BenchmarkTableI_Assembled(b *testing.B) { opBench(b, opKind(b, benchProblem(8), op.Assembled)) }
func BenchmarkTableI_MatrixFree(b *testing.B) {
	opBench(b, fem.NewMF(benchProblem(8)))
}
func BenchmarkTableI_Tensor(b *testing.B) { opBench(b, fem.NewTensor(benchProblem(8))) }
func BenchmarkTableI_TensorC(b *testing.B) {
	opBench(b, opKind(b, benchProblem(8), op.TensorC))
}

// --- sinker-based solves (Figures 1–2, Tables II–IV) --------------------

// sinkerSolveBench runs complete Stokes solves on the §IV-A sinker.
func sinkerSolveBench(b *testing.B, m int, deta float64, mut func(*stokes.Config)) {
	o := scenario.DefaultSinkerOptions()
	o.M = m
	o.DeltaEta = deta
	mdl := scenario.MustCompile(scenario.Sinker(o), 1)
	edit := func(c *stokes.Config) {
		c.Params.MaxIt = 1500
		if mut != nil {
			mut(c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, bu, err := mdl.LinearStokes(edit)
		if err != nil {
			b.Fatal(err)
		}
		x := la.NewVec(s.Op.N())
		b.StartTimer()
		res := s.Solve(x, bu, nil)
		if !res.Converged {
			b.Fatalf("solve failed after %d its", res.Iterations)
		}
		b.ReportMetric(float64(res.Iterations), "its")
	}
}

func BenchmarkFig2_Contrast1(b *testing.B)     { sinkerSolveBench(b, 8, 1, nil) }
func BenchmarkFig2_Contrast100(b *testing.B)   { sinkerSolveBench(b, 8, 100, nil) }
func BenchmarkFig2_Contrast10000(b *testing.B) { sinkerSolveBench(b, 8, 10000, nil) }

func BenchmarkTableII_SolveAsmb(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.FineKind = op.Assembled })
}
func BenchmarkTableII_SolveMF(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.FineKind = op.MFRef })
}
func BenchmarkTableII_SolveTens(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.FineKind = op.Tensor })
}

// Table III's "MG res" rows measure the fine-level residual evaluation of
// each SpMV implementation — operator application on the sinker problem.
func tableIIIProblem() *fem.Problem {
	o := scenario.DefaultSinkerOptions()
	o.M = 8
	return scenario.MustCompile(scenario.Sinker(o), 1).Prob
}

func BenchmarkTableIII_MGResAsmb(b *testing.B) {
	opBench(b, opKind(b, tableIIIProblem(), op.Assembled))
}
func BenchmarkTableIII_MGResMF(b *testing.B)     { opBench(b, fem.NewMF(tableIIIProblem())) }
func BenchmarkTableIII_MGResTensor(b *testing.B) { opBench(b, fem.NewTensor(tableIIIProblem())) }

func BenchmarkTableIV_GMGi(b *testing.B) { sinkerSolveBench(b, 8, 100, nil) }
func BenchmarkTableIV_GMGii(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) {
		c.FineKind = op.Galerkin
	})
}
func BenchmarkTableIV_SAi(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) {
		c.Levels = 1
		c.FineKind = op.Assembled
		c.AMGConfig = "gamg"
	})
}
func BenchmarkTableIV_SAMLi(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) {
		c.Levels = 1
		c.FineKind = op.Assembled
		c.AMGConfig = "ml"
	})
}
func BenchmarkTableIV_SAMLii(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) {
		c.Levels = 1
		c.FineKind = op.Assembled
		c.AMGConfig = "mlstrong"
	})
}

// --- Figure 1: streamline tracing ---------------------------------------

func BenchmarkFig1_Streamlines(b *testing.B) {
	o := scenario.DefaultSinkerOptions()
	o.M = 6
	mdl := scenario.MustCompile(scenario.Sinker(o), 1)
	mdl.Cfg.Levels = 2
	if _, err := mdl.SolveStokes(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := mdl.Streamline(0.3, 0.4, 0.8, 0.02, 300)
		if len(line) < 2 {
			b.Fatal("streamline too short")
		}
	}
}

// --- Figures 3/4: one rift time step ------------------------------------

func BenchmarkFig4_RiftStep(b *testing.B) {
	o := scenario.DefaultRiftOptions()
	o.Mx, o.My, o.Mz = 16, 4, 8
	m := scenario.MustCompile(scenario.Rift(o), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepForward(); err != nil {
			b.Fatal(err)
		}
		st := m.Stats[len(m.Stats)-1]
		b.ReportMetric(float64(st.NewtonIts), "newton")
		b.ReportMetric(float64(st.KrylovIts), "krylov")
	}
}

// --- Ablation benches: each varies one design choice ----------------------

// GCR vs FGMRES as the outer flexible method (§III-A; DESIGN.md, "Scenarios
// and the front door").
func BenchmarkAblation_OuterGCR(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.OuterMethod = "gcr" })
}
func BenchmarkAblation_OuterFGMRES(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.OuterMethod = "fgmres" })
}

// Chebyshev degree: V(1,1) vs V(2,2) vs V(3,3) (§III-C; DESIGN.md, "One
// V-cycle: resident operator and blocked smoother").
func BenchmarkAblation_V11(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.SmoothSteps = 1 })
}
func BenchmarkAblation_V22(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.SmoothSteps = 2 })
}
func BenchmarkAblation_V33(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.SmoothSteps = 3 })
}

// Coarse-solver choice: GAMG V-cycle vs CG+ASM (§IV-A, §V-A; DESIGN.md,
// "Scenarios and the front door").
func BenchmarkAblation_CoarseGAMG(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.CoarseSolver = "gamg" })
}
func BenchmarkAblation_CoarseASMCG(b *testing.B) {
	sinkerSolveBench(b, 8, 100, func(c *stokes.Config) { c.CoarseSolver = "asmcg" })
}

// SUPG on/off for the energy equation (§V; DESIGN.md, "Packages").
func supgBench(b *testing.B, supg bool) {
	da := mesh.New(8, 8, 8, 0, 1, 0, 1, 0, 1)
	p := fem.NewProblem(da, nil)
	s := thermal.New(p, 1e-6)
	s.SUPG = supg
	s.SetFaceTemperature(mesh.XMin, 1)
	s.SetFaceTemperature(mesh.XMax, 0)
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 1
	}
	T := make([]float64, p.DA.NVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(T, u, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ThermalSUPG(b *testing.B)     { supgBench(b, true) }
func BenchmarkAblation_ThermalGalerkin(b *testing.B) { supgBench(b, false) }

// Worker scaling of the tensor kernel (intra-node story; on a single-CPU
// host this measures the scheduling overhead floor — see EXPERIMENTS.md).
func workerBench(b *testing.B, workers int) {
	p := benchProblem(12)
	p.Workers = workers
	opBench(b, fem.NewTensor(p))
}

func BenchmarkScaling_Workers1(b *testing.B) { workerBench(b, 1) }
func BenchmarkScaling_Workers2(b *testing.B) { workerBench(b, 2) }
func BenchmarkScaling_Workers4(b *testing.B) { workerBench(b, 4) }

// --- Small-grid parallel efficiency --------------------------------------
//
// One preconditioned Krylov iteration taken apart on the sinker's own
// hierarchy at 8³ and 16³, 1 and 2 workers: the V-cycle, its fine- and
// second-level smoother visits (pre from a zero guess + post), the fine
// viscous apply and the coupled matvec. At 8³ a region is ~100 µs of work,
// about what waking a parked pool worker costs, so the w2/w1 ratio of
// these rows is the tracked number for how well the parallel substrate
// serves small grids (EXPERIMENTS.md, "One dispatch per smoother visit").
func BenchmarkVCycle(b *testing.B) {
	for _, m := range []int{8, 16} {
		for _, w := range []int{1, 2} {
			o := scenario.DefaultSinkerOptions()
			o.M = m
			mdl := scenario.MustCompile(scenario.Sinker(o), w)
			s, _, err := mdl.LinearStokes(nil)
			if err != nil {
				b.Fatal(err)
			}
			g := s.MG
			u := la.NewVec(g.Levels[0].Op.N())
			for i := range u {
				u[i] = math.Sin(float64(i))
			}
			res, z := la.NewVec(len(u)), la.NewVec(len(u))
			g.Levels[0].Op.Apply(u, res)
			layer := func(name string, f func()) {
				b.Run(fmt.Sprintf("m%d/w%d/%s", m, w, name), func(b *testing.B) {
					f() // warm
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f()
					}
				})
			}
			layer("vcycle", func() { g.Apply(res, z) })
			rhs := res
			for l := 0; l < 2 && l+1 < len(g.Levels); l++ {
				lev := g.Levels[l]
				if lev.Blocked == nil {
					break
				}
				bl, x := rhs, la.NewVec(lev.Op.N())
				layer(fmt.Sprintf("smooth_l%d", l), func() {
					lev.Blocked.Smooth(bl, x, true)
					lev.Blocked.Smooth(bl, x, false)
				})
				rhs = la.NewVec(g.Levels[l+1].Op.N())
				g.Levels[l+1].P.ApplyTranspose(bl, rhs)
			}
			layer("A0", func() { g.Levels[0].Op.Apply(u, z) })
			X, Y := la.NewVec(s.Op.N()), la.NewVec(s.Op.N())
			copy(X, u)
			layer("matvec", func() { s.Op.Apply(X, Y) })
		}
	}
}

// --- Coarse solver ----------------------------------------------------
//
// BenchmarkASMApply times one application of the rift's coarse-level
// Schwarz preconditioner (8 subdomains, overlap 4, ILU(0): the "asmcg"
// coarse solver's, on the small rift's coarsest matrix at its cold
// set-up) at 1 and 2 workers. Each subdomain solve is a forward and a
// backward sweep over its factor, which is bound by the bytes it streams:
// ns/entry divides the time by the stored entries of the coarse matrix.
func BenchmarkASMApply(b *testing.B) {
	spec, err := scenario.Get("rift")
	if err != nil {
		b.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	mdl := scenario.MustCompile(spec, 1)
	s, _, err := mdl.LinearStokes(nil)
	if err != nil {
		b.Fatal(err)
	}
	a := s.MG.Levels[len(s.MG.Levels)-1].Op.CSR()
	r, z := la.NewVec(a.NRows), la.NewVec(a.NRows)
	for i := range r {
		r[i] = math.Sin(float64(i))
	}
	for _, w := range []int{1, 2} {
		asm, err := krylov.NewASM(a, krylov.ASMOptions{Subdomains: 8, Overlap: 4, Workers: w})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			asm.Apply(r, z) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asm.Apply(r, z)
			}
			per := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(1e3*per, "ms/apply")
			b.ReportMetric(1e9*per/float64(a.NNZ()), "ns/entry")
		})
	}
}

// --- Rank synchronisation ---------------------------------------------
//
// BenchmarkRankSync prices the rank fabric's two synchronisations on a
// 2-rank world over an 8³ mesh: an AllReduceSum (the reduction under every
// inner product of the rank solve) and one halo owner broadcast (one
// neighbour exchange), each after c of compute on both ranks. us/sync is the
// wall time per round beyond the compute: what a rank pays to hear from
// its peer. 200 µs is about the compute between two syncs of the 16³
// rank solve; 20 µs the smaller grids'.
func BenchmarkRankSync(b *testing.B) {
	da := mesh.New(8, 8, 8, 0, 1, 0, 1, 0, 1)
	d, err := comm.NewDecomp(da, 2, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []time.Duration{20 * time.Microsecond, 200 * time.Microsecond} {
		for _, kind := range []string{"allreduce", "exchange"} {
			b.Run(fmt.Sprintf("%s/%dus", kind, c/time.Microsecond), func(b *testing.B) {
				w := comm.NewWorld(2)
				b.ResetTimer()
				w.Run(func(r *comm.Rank) {
					dist := comm.NewDist(r, comm.NewLayout(d, r.ID), nil)
					y := la.NewVec(3 * da.NPx * da.NPy * da.NPz)
					for i := 0; i < b.N; i++ {
						for st := time.Now(); time.Since(st) < c; {
						}
						if kind == "allreduce" {
							dist.AllReduceSum(1)
						} else if err := dist.Broadcast(y); err != nil {
							b.Error(err)
							return
						}
					}
				})
				per := b.Elapsed() / time.Duration(b.N)
				b.ReportMetric(float64(per-c)/1e3, "us/sync")
			})
		}
	}
}

// --- Telemetry overhead ------------------------------------------------
//
// The contract (DESIGN.md): with telemetry disabled every instrument is a
// nil pointer and recording degenerates to a nil check — no locks, no
// clock reads, no allocations on the hot path. These benchmarks pin that
// down against the enabled cost.

func BenchmarkTelemetry_CounterDisabled(b *testing.B) {
	var c *telemetry.Counter // nil = disabled
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetry_CounterEnabled(b *testing.B) {
	c := telemetry.New().Root().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetry_TimerDisabled(b *testing.B) {
	var t *telemetry.Timer // nil = disabled: Start skips the clock read
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Stop(t.Start())
	}
}

func BenchmarkTelemetry_TimerEnabled(b *testing.B) {
	t := telemetry.New().Root().Timer("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Stop(t.Start())
	}
}

// solveBench runs the production GMG Stokes solve with and without the
// full telemetry stack attached — the end-to-end overhead check.
func telemetrySolveBench(b *testing.B, enabled bool) {
	p := benchProblem(8)
	cfg := stokes.DefaultConfig()
	if enabled {
		cfg.Telemetry = telemetry.New().Root()
	}
	p.Gravity = [3]float64{0, 0, -9.8}
	p.SetCoefficientsFunc(
		func(x, y, z float64) float64 { return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y)) },
		func(x, y, z float64) float64 { return 1 + 0.5*math.Sin(math.Pi*z) },
	)
	cfg.CoeffCoarsen = mg.FuncCoeffCoarsener(
		func(x, y, z float64) float64 { return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y)) },
		func(x, y, z float64) float64 { return 1 + 0.5*math.Sin(math.Pi*z) },
	)
	s, err := stokes.New(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := la.NewVec(s.Op.N())
		res := s.Solve(x, bu, nil)
		if !res.Converged {
			b.Fatal("solve failed")
		}
	}
}

func BenchmarkTelemetry_StokesSolveDisabled(b *testing.B) { telemetrySolveBench(b, false) }
func BenchmarkTelemetry_StokesSolveEnabled(b *testing.B)  { telemetrySolveBench(b, true) }

// --- Slab apply schedule ------------------------------------------------
//
// BenchmarkApplySlab times the slab-partitioned owner-computes scatter on
// the tensor operator at 1 and 4 workers. (The 8-colour schedule it
// replaced is a test reference in internal/fem/slab_test.go.)

func applySlabBench(b *testing.B, workers int) {
	p := benchProblem(12)
	p.Workers = workers
	opBench(b, fem.NewTensor(p))
}

func BenchmarkApplySlabW1(b *testing.B) { applySlabBench(b, 1) }
func BenchmarkApplySlabW4(b *testing.B) { applySlabBench(b, 4) }

// --- Pool dispatch vs per-call goroutine spawn -------------------------
//
// BenchmarkDispatch isolates the cost the persistent pool removes: the
// spawn variant recreates the pre-PR-4 behaviour (fresh goroutines plus a
// WaitGroup barrier per call), the pool variant goes through par.For. The
// body is deliberately tiny so the dispatch overhead dominates, as it did
// for the 8 small color sweeps of the colored apply the slab schedule replaced.

func BenchmarkDispatchSpawn(b *testing.B) {
	sink := make([]float64, 4096)
	const nw = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			lo, hi := w*len(sink)/nw, (w+1)*len(sink)/nw
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for j := lo; j < hi; j++ {
					sink[j] += 1
				}
			}(lo, hi)
		}
		wg.Wait()
	}
}

func BenchmarkDispatchPool(b *testing.B) {
	sink := make([]float64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		par.For(4, len(sink), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				sink[j] += 1
			}
		})
	}
}
