// Command ptatin-scaling regenerates Tables II and III of the paper at
// laptop scale: iterations, coarse-grid setup/apply time and Stokes
// time-to-solution for the assembled (Asmb), reference matrix-free (MF)
// and tensor-product (Tens) fine-level operators, across a grid × worker
// ("cores") sweep, plus the efficiency metrics elements/core/second and
// GF/s derived from the analytic flop counts of the performance model.
//
// The paper sweeps 64³–192³ elements over 192–12,288 MPI cores on a Cray
// XC-30; this reproduction sweeps (by default) 8³–16³ elements over 1–4
// worker goroutines sharing one node — the regime where the paper's
// memory-bandwidth argument lives (see DESIGN.md).
//
// -sweep runs the rank-distributed solve over 1–512 simulated ranks with
// pipelined GCR: two batched reductions per iteration (AR/it column: 2.00
// measured) where classical GCR needs j+3 at basis length j (21 on the
// 16³ rows, -pipelined=false), and the same iteration count on every rank
// grid — the two strong-16 rows read 37 and 37, which scripts/check.sh
// asserts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"

	"ptatin3d/internal/par"
	"ptatin3d/internal/perfmodel"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// telReg is the run-wide telemetry registry, nil unless -telemetry is set.
var telReg *telemetry.Registry

func main() {
	grids := flag.String("grids", "8,12,16", "comma-separated grid sizes (elements/direction)")
	cores := flag.String("cores", "1,2,4", "comma-separated worker counts (0 entries = runtime.NumCPU())")
	deta := flag.Float64("deta", 100, "viscosity contrast")
	opFlag := flag.String("op", "", "restrict the sweep to one fine-level representation (mf|mfref|asm|galerkin); default sweeps asm, mfref and mf")
	ranks := flag.String("ranks", "", "run the rank-distributed solve over a PxxPyxPz rank grid (e.g. 2x2x1) instead of the shared-memory sweep")
	sweep := flag.Bool("sweep", false, "run the weak+strong scaling sweep over 1..512 simulated ranks (pipelined Krylov + coarse agglomeration + fabric model)")
	sweepMaxRanks := flag.Int("sweep-max-ranks", 512, "with -sweep: skip sweep points above this rank count (bounded smoke runs)")
	pipelined := flag.Bool("pipelined", true, "with -sweep: use the pipelined (batched-reduction) Krylov variants")
	aggRoots := flag.Int("agg", 8, "with -sweep: agglomerate the coarse solve onto this many roots (clamped to the rank count; 0 = legacy all-to-rank-0 gather)")
	telFlag := flag.Bool("telemetry", false, "emit the per-run telemetry table + JSON after the sweep")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	if *telFlag {
		telReg = telemetry.New()
		par.SetTelemetry(telReg.Root().Child("par"))
		defer par.SetTelemetry(nil)
		fem.SetTelemetry(telReg.Root().Child("fem"))
		defer fem.SetTelemetry(nil)
	}

	if *sweep {
		runSweepMode(*deta, *sweepMaxRanks, *pipelined, *aggRoots)
		return
	}
	if *ranks != "" {
		gridList, err := cli.ParseInts(*grids)
		if err != nil {
			log.Fatal(err)
		}
		runRanksMode(gridList, *ranks, *deta)
		return
	}

	counts := map[string]perfmodel.OpCounts{}
	for _, c := range perfmodel.ReproCounts() {
		counts[c.Name] = c
	}
	kindName := map[op.Kind]string{
		op.Assembled: "Asmb",
		op.MFRef:     "MF",
		op.Tensor:    "Tens",
		op.Galerkin:  "Galk",
	}
	countName := map[op.Kind]string{
		op.Assembled: "Assembled",
		op.MFRef:     "Matrix-free",
		op.Tensor:    "Tensor",
		op.Galerkin:  "Assembled",
	}
	kinds := []op.Kind{op.Assembled, op.MFRef, op.Tensor}
	if *opFlag != "" {
		k, err := op.ParseKind(*opFlag)
		if err != nil {
			log.Fatal(err)
		}
		kinds = []op.Kind{k}
	}

	fmt.Println("# Table II/III reproduction (laptop scale; see DESIGN.md substitutions)")
	fmt.Printf("%-6s %-6s %-5s %4s %12s %12s %12s | %10s %9s %8s\n",
		"grid", "cores", "SpMV", "its", "coarse-setup", "coarse-apply", "solve(s)",
		"E/C/s", "GF/C/s", "GF/s")

	coreList, err := cli.ParseInts(*cores)
	if err != nil {
		log.Fatal(err)
	}
	cli.WorkersList(coreList)
	gridList, err := cli.ParseInts(*grids)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range gridList {
		for _, c := range coreList {
			for _, kind := range kinds {
				runOne(g, c, *deta, kind, kindName[kind], counts[countName[kind]])
			}
		}
	}
	fmt.Println("\n# Shape check (paper): MF uniformly faster than Asmb; Tens uniformly")
	fmt.Println("# faster than MF; E/C/s highest for Tens; iterations roughly flat in cores.")

	if telReg != nil {
		fmt.Println("\n# Telemetry breakdown (accumulated over the sweep)")
		telReg.WriteTable(os.Stdout)
		fmt.Println("\n# Telemetry (JSON)")
		if err := telReg.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func runOne(g, workers int, deta float64, kind op.Kind, label string, oc perfmodel.OpCounts) {
	o := scenario.DefaultSinkerOptions()
	o.M = g
	o.DeltaEta = deta
	o.Workers = workers
	mdl := scenario.NewSinker(o)
	mdl.UpdateCoefficients(la.NewVec(mdl.Prob.DA.NVelDOF()+mdl.Prob.DA.NPresDOF()), false)

	cfg := mdl.Cfg
	cfg.Workers = workers
	cfg.FineKind = kind
	cfg.Params.MaxIt = 1000
	if telReg != nil {
		cfg.Telemetry = telReg.Root().Child(fmt.Sprintf("g%d_w%d_%s", g, workers, label))
	}
	cfg.CoeffCoarsen = mdl.CoeffCoarsener()

	setupStart := time.Now()
	s, err := stokes.New(mdl.Prob, cfg)
	if err != nil {
		log.Fatal(err)
	}
	setup := time.Since(setupStart)

	bu := la.NewVec(mdl.Prob.DA.NVelDOF())
	fem.MomentumRHS(mdl.Prob, bu)
	x := la.NewVec(s.Op.N())
	solveStart := time.Now()
	res := s.Solve(x, bu, nil)
	solve := time.Since(solveStart).Seconds()
	if !res.Converged {
		fmt.Printf("%-6d %-6d %-5s FAILED after %d its\n", g, workers, label, res.Iterations)
		return
	}
	var coarseApply time.Duration
	if s.CoarseApply != nil {
		coarseApply = s.CoarseApply.Elapsed()
	}
	nel := float64(g * g * g)
	ecs := nel / float64(workers) / solve
	// GF/s attribution: fine-level operator flops × matvec count +
	// (smoother applications inside MG are counted via the PC attribution
	// used by the paper: total useful flops of the solve estimated from
	// the fine-operator count per Krylov iteration × a V(2,2) multiplier).
	const vcycleOps = 7.0 // 2 pre + 2 post smoother applies + residual + λmax share + matvec
	gflops := oc.Flops * nel * float64(res.Iterations) * vcycleOps / 1e9
	gfs := gflops / solve
	fmt.Printf("%-6d %-6d %-5s %4d %12.3f %12.3f %12.3f | %10.0f %9.3f %8.2f\n",
		g, workers, label, res.Iterations,
		setup.Seconds(), coarseApply.Seconds(), solve,
		ecs, gfs/float64(workers), gfs)
}

// runRanksMode reproduces the Tables II/III shape for the
// rank-distributed solve: each grid is solved collectively over a
// px×py×pz simulated MPI world (cores = ranks — the paper's flat-MPI
// mapping), reporting iterations, time-to-solution, elements/core/s and
// the per-rank halo/allreduce traffic next to the analytic halo-volume
// prediction of the performance model. Grids whose multigrid hierarchy
// the rank grid cannot decompose evenly (nesting requires Px,Py,Pz to
// divide the element counts at every level) are reported and skipped.
func runRanksMode(grids []int, ranksSpec string, deta float64) {
	px, py, pz, err := cli.ParseRanks(ranksSpec)
	if err != nil {
		log.Fatal(err)
	}
	nr := px * py * pz
	fmt.Printf("# Table II/III shape, rank-distributed (%s = %d ranks; cores = ranks)\n", ranksSpec, nr)
	fmt.Printf("%-6s %-7s %4s %12s %12s %10s | %12s %12s %10s\n",
		"grid", "ranks", "its", "setup(s)", "solve(s)", "E/C/s",
		"halo-B/rank", "pred-B/exch", "allreduces")
	for _, g := range grids {
		o := scenario.DefaultSinkerOptions()
		o.M = g
		o.DeltaEta = deta
		o.Workers = 1
		mdl := scenario.NewSinker(o)
		mdl.UpdateCoefficients(la.NewVec(mdl.Prob.DA.NVelDOF()+mdl.Prob.DA.NPresDOF()), false)

		cfg := mdl.Cfg
		cfg.Workers = 1
		cfg.FineKind = op.Tensor
		cfg.Params.MaxIt = 1000
		cfg.CoeffCoarsen = mdl.CoeffCoarsener()
		if telReg != nil {
			cfg.Telemetry = telReg.Root().Child(fmt.Sprintf("g%d_r%s", g, ranksSpec))
		}

		setupStart := time.Now()
		s, err := stokes.New(mdl.Prob, cfg)
		if err != nil {
			log.Fatal(err)
		}
		setup := time.Since(setupStart)

		bu := la.NewVec(mdl.Prob.DA.NVelDOF())
		fem.MomentumRHS(mdl.Prob, bu)
		x := la.NewVec(s.Op.N())
		solveStart := time.Now()
		res, stats, err := s.SolveDistributed(x, bu, px, py, pz, stokes.DistOptions{})
		solve := time.Since(solveStart).Seconds()
		if err != nil {
			fmt.Printf("%-6d %-7s SKIP: %v\n", g, ranksSpec, err)
			continue
		}
		if !res.Converged {
			fmt.Printf("%-6d %-7s FAILED after %d its\n", g, ranksSpec, res.Iterations)
			continue
		}
		pred := perfmodel.HaloExchangeBytes(perfmodel.MaxGhostNodes(g, g, g, px, py, pz))
		nel := float64(g * g * g)
		ecs := nel / float64(nr) / solve
		var maxBytes, maxAR int64
		for _, st := range stats {
			maxBytes = max(maxBytes, st.HaloBytes)
			maxAR = max(maxAR, st.AllReduces)
		}
		fmt.Printf("%-6d %-7s %4d %12.3f %12.3f %10.0f | %12d %12.0f %10d\n",
			g, ranksSpec, res.Iterations, setup.Seconds(), solve, ecs,
			maxBytes, pred, maxAR)
		for _, st := range stats {
			fmt.Printf("#   rank %2d: halo %6d msgs %10d B, %5d allreduces, %d retries\n",
				st.Rank, st.HaloMsgs, st.HaloBytes, st.AllReduces, st.Retries)
		}
	}
}

// sweepRow is one solved (rank-grid, grid) point of the sweep: the
// latency-tolerant configuration of the rank-distributed solve (pipelined
// batched-reduction Krylov, agglomerated coarse solve, α–β fabric model),
// per-rank detail summarised as the max over ranks.
type sweepRow struct {
	m, nranks, iterations int
	ranks                 string
	solveS, elemPerCoreS  float64
	// arPerIt is the per-rank allreduce count over the outer iterations —
	// pipelined GCR holds it at 2 where the classical recurrence needs j+3
	// at basis length j.
	arPerIt float64
	// Modeled fabric time (max over ranks, ns) by operation class: the α–β
	// interconnect cost that would dominate at real scale.
	fabricHaloNs, fabricAllReduceNs, fabricCoarseNs int64
}

// sweepPoint is one configuration of the sweep.
type sweepPoint struct {
	mode       string
	px, py, pz int
	g          int
}

// sweepPoints returns the sweep: weak scaling holds 2 elements per
// rank per axis (the whole problem grows with the machine), strong
// scaling holds the 16^3 grid fixed while the rank grid grows — both
// over 1, 8, 64, 512 ranks. Every grid nests 2:1 under its rank grid at
// both hierarchy levels, so the distributed V-cycle decomposes evenly.
func sweepPoints() []sweepPoint {
	return []sweepPoint{
		{"weak", 1, 1, 1, 2}, {"weak", 2, 2, 2, 4}, {"weak", 4, 4, 4, 8}, {"weak", 8, 8, 8, 16},
		{"strong", 1, 1, 1, 16}, {"strong", 2, 2, 2, 16}, {"strong", 4, 4, 4, 16}, {"strong", 8, 8, 8, 16},
	}
}

// runSweepMode runs the weak+strong scaling sweep with the
// latency-tolerant solver configuration and prints its table. Identical
// (rank-grid, grid) configurations — the 512-rank corner is shared by
// both scaling curves — are solved once and reported under both modes.
func runSweepMode(deta float64, maxRanks int, pipelined bool, aggRoots int) {
	fmt.Printf("# PR6 scaling sweep (pipelined=%v, agg roots<=%d, fabric=alpha-beta; cores = ranks)\n",
		pipelined, aggRoots)
	fmt.Printf("%-6s %-6s %-7s %6s %4s %12s %10s %6s | %12s %12s %12s\n",
		"mode", "grid", "ranks", "nranks", "its", "solve(s)", "E/C/s", "AR/it",
		"fab-halo(ms)", "fab-AR(ms)", "fab-crs(ms)")
	type cacheKey struct {
		px, py, pz, g int
	}
	cache := map[cacheKey]*sweepRow{}
	for _, pt := range sweepPoints() {
		if nr := pt.px * pt.py * pt.pz; nr > maxRanks {
			fmt.Printf("%-6s %-6d %-7s SKIP: above -sweep-max-ranks=%d\n",
				pt.mode, pt.g, fmt.Sprintf("%dx%dx%d", pt.px, pt.py, pt.pz), maxRanks)
			continue
		}
		key := cacheKey{pt.px, pt.py, pt.pz, pt.g}
		r := cache[key]
		if r == nil {
			r = sweepOne(pt, deta, pipelined, aggRoots)
			cache[key] = r
		}
		if r == nil {
			continue
		}
		fmt.Printf("%-6s %-6d %-7s %6d %4d %12.3f %10.0f %6.2f | %12.1f %12.1f %12.1f\n",
			pt.mode, r.m, r.ranks, r.nranks, r.iterations, r.solveS,
			r.elemPerCoreS, r.arPerIt,
			float64(r.fabricHaloNs)/1e6, float64(r.fabricAllReduceNs)/1e6,
			float64(r.fabricCoarseNs)/1e6)
	}
}

// sweepOne solves one sweep point and summarises it (nil on skip/fail).
func sweepOne(pt sweepPoint, deta float64, pipelined bool, aggRoots int) *sweepRow {
	nr := pt.px * pt.py * pt.pz
	ranksSpec := fmt.Sprintf("%dx%dx%d", pt.px, pt.py, pt.pz)
	o := scenario.DefaultSinkerOptions()
	o.M = pt.g
	o.DeltaEta = deta
	o.Workers = 1
	mdl := scenario.NewSinker(o)
	mdl.UpdateCoefficients(la.NewVec(mdl.Prob.DA.NVelDOF()+mdl.Prob.DA.NPresDOF()), false)

	cfg := mdl.Cfg
	cfg.Workers = 1
	cfg.FineKind = op.Tensor
	cfg.Params.MaxIt = 1000
	cfg.CoeffCoarsen = mdl.CoeffCoarsener()
	// Two geometric levels everywhere: the coarsest level's g/2 elements
	// per axis must still host the rank grid (nesting requires every
	// level to decompose), and the whole sweep should run one hierarchy
	// shape so the scaling curves compare like against like.
	cfg.Levels = 2

	s, err := stokes.New(mdl.Prob, cfg)
	if err != nil {
		log.Fatal(err)
	}

	roots := aggRoots
	if roots > nr {
		roots = nr
	}
	opt := stokes.DistOptions{
		Pipelined:   pipelined,
		CoarseRoots: roots,
		Fabric:      perfmodel.DefaultFabric(),
		// Oversubscribed worlds (512 goroutines per host core) deliver
		// acks slowly without anything being wrong: a generous
		// per-attempt timeout keeps spurious retransmissions out of the
		// measurement, and the poll-slice cap in comm keeps discovery
		// latency flat regardless.
		Policy: comm.RetryPolicy{Timeout: 2 * time.Second, MaxRetries: 8, Backoff: 1.5},
	}

	bu := la.NewVec(mdl.Prob.DA.NVelDOF())
	fem.MomentumRHS(mdl.Prob, bu)
	x := la.NewVec(s.Op.N())
	solveStart := time.Now()
	res, stats, err := s.SolveDistributed(x, bu, pt.px, pt.py, pt.pz, opt)
	solve := time.Since(solveStart).Seconds()
	if err != nil || !res.Converged {
		fmt.Printf("%-6s %-6d %-7s FAILED (its=%d, err=%v)\n", pt.mode, pt.g, ranksSpec, res.Iterations, err)
		return nil
	}
	row := &sweepRow{
		m: pt.g, ranks: ranksSpec, nranks: nr, iterations: res.Iterations,
		solveS:       solve,
		elemPerCoreS: float64(pt.g*pt.g*pt.g) / float64(nr) / solve,
	}
	var allReduces int64
	for _, st := range stats {
		allReduces = max(allReduces, st.AllReduces)
		row.fabricHaloNs = max(row.fabricHaloNs, st.FabricHaloNs)
		row.fabricAllReduceNs = max(row.fabricAllReduceNs, st.FabricAllReduceNs)
		row.fabricCoarseNs = max(row.fabricCoarseNs, st.FabricCoarseNs)
	}
	if res.Iterations > 0 {
		row.arPerIt = float64(allReduces) / float64(res.Iterations)
	}
	return row
}
