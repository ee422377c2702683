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
	"encoding/json"
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
	opFlag := flag.String("op", "", "restrict the sweep to one fine-level representation (auto|mf|mfref|asm|galerkin); default sweeps asm, mfref and mf")
	ranks := flag.String("ranks", "", "run the rank-distributed solve over a PxxPyxPz rank grid (e.g. 2x2x1) instead of the shared-memory sweep")
	jsonFlag := flag.Bool("json", false, "with -ranks/-sweep: emit the machine-readable scaling benchmark (BENCH_PR5/BENCH_PR6 schema) and exit")
	sweep := flag.Bool("sweep", false, "run the PR6 weak+strong scaling sweep over 1..512 simulated ranks (pipelined Krylov + coarse agglomeration + fabric model)")
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
		runSweepMode(*deta, *jsonFlag, *sweepMaxRanks, *pipelined, *aggRoots)
		return
	}
	if *ranks != "" {
		gridList, err := cli.ParseInts(*grids)
		if err != nil {
			log.Fatal(err)
		}
		runRanksMode(gridList, *ranks, *deta, *jsonFlag)
		return
	}
	if *jsonFlag {
		log.Fatal("ptatin-scaling: -json requires -ranks or -sweep (the BENCH_PR5/PR6 schemas cover the rank-distributed solve)")
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
		op.Auto:      "Auto",
	}
	countName := map[op.Kind]string{
		op.Assembled: "Assembled",
		op.MFRef:     "Matrix-free",
		op.Tensor:    "Tensor",
		op.Galerkin:  "Assembled",
		op.Auto:      "Tensor",
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

// rankRecord is one (grid, rank-grid) measurement in the BENCH_PR5
// schema: the rank-distributed solve of the sinker benchmark, with the
// per-rank communication volumes and the analytic halo prediction.
type rankRecord struct {
	M             int                `json:"m"`
	Ranks         string             `json:"ranks"`
	NRanks        int                `json:"nranks"`
	Iterations    int                `json:"iterations"`
	Converged     bool               `json:"converged"`
	SetupMs       float64            `json:"setup_ms"`
	SolveMs       float64            `json:"solve_ms"`
	ElemPerCoreS  float64            `json:"elem_per_core_s"`
	PredHaloBytes float64            `json:"predicted_halo_bytes_per_exchange"`
	PerRank       []stokes.RankStats `json:"per_rank"`
}

// runRanksMode reproduces the Tables II/III shape for the
// rank-distributed solve: each grid is solved collectively over a
// px×py×pz simulated MPI world (cores = ranks — the paper's flat-MPI
// mapping), reporting iterations, time-to-solution, elements/core/s and
// the per-rank halo/allreduce traffic next to the analytic halo-volume
// prediction of the performance model. Grids whose multigrid hierarchy
// the rank grid cannot decompose evenly (nesting requires Px,Py,Pz to
// divide the element counts at every level) are reported and skipped.
func runRanksMode(grids []int, ranksSpec string, deta float64, emitJSON bool) {
	px, py, pz, err := cli.ParseRanks(ranksSpec)
	if err != nil {
		log.Fatal(err)
	}
	nr := px * py * pz
	var records []rankRecord
	if !emitJSON {
		fmt.Printf("# Table II/III shape, rank-distributed (%s = %d ranks; cores = ranks)\n", ranksSpec, nr)
		fmt.Printf("%-6s %-7s %4s %12s %12s %10s | %12s %12s %10s\n",
			"grid", "ranks", "its", "setup(s)", "solve(s)", "E/C/s",
			"halo-B/rank", "pred-B/exch", "allreduces")
	}
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
			// stderr in JSON mode so the document stays parseable.
			if emitJSON {
				log.Printf("grid %d ranks %s: SKIP: %v", g, ranksSpec, err)
			} else {
				fmt.Printf("%-6d %-7s SKIP: %v\n", g, ranksSpec, err)
			}
			continue
		}
		if !res.Converged {
			if emitJSON {
				log.Printf("grid %d ranks %s: FAILED after %d its", g, ranksSpec, res.Iterations)
			} else {
				fmt.Printf("%-6d %-7s FAILED after %d its\n", g, ranksSpec, res.Iterations)
			}
			continue
		}
		pred := perfmodel.HaloExchangeBytes(perfmodel.MaxGhostNodes(g, g, g, px, py, pz))
		nel := float64(g * g * g)
		ecs := nel / float64(nr) / solve
		var maxBytes, maxMsgs, maxAR int64
		for _, st := range stats {
			maxBytes = max(maxBytes, st.HaloBytes)
			maxMsgs = max(maxMsgs, st.HaloMsgs)
			maxAR = max(maxAR, st.AllReduces)
		}
		if emitJSON {
			records = append(records, rankRecord{
				M: g, Ranks: ranksSpec, NRanks: nr,
				Iterations: res.Iterations, Converged: true,
				SetupMs: setup.Seconds() * 1e3, SolveMs: solve * 1e3,
				ElemPerCoreS: ecs, PredHaloBytes: pred, PerRank: stats,
			})
			continue
		}
		fmt.Printf("%-6d %-7s %4d %12.3f %12.3f %10.0f | %12d %12.0f %10d\n",
			g, ranksSpec, res.Iterations, setup.Seconds(), solve, ecs,
			maxBytes, pred, maxAR)
		for _, st := range stats {
			fmt.Printf("#   rank %2d: halo %6d msgs %10d B, %5d allreduces, %d retries\n",
				st.Rank, st.HaloMsgs, st.HaloBytes, st.AllReduces, st.Retries)
		}
	}
	if emitJSON {
		doc := struct {
			Schema  string       `json:"schema"`
			Ranks   string       `json:"ranks"`
			Results []rankRecord `json:"results"`
		}{Schema: "BENCH_PR5", Ranks: ranksSpec, Results: records}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatal(err)
		}
	}
}

// sweepRecord is one (mode, rank-grid, grid) measurement in the
// BENCH_PR6 schema: the latency-tolerant configuration of the
// rank-distributed solve (pipelined batched-reduction Krylov, agglomerated
// coarse solve, α–β fabric model) at scaling-sweep rank counts. Per-rank
// detail is summarised (max over ranks) — at 512 ranks the full list
// drowns the document.
type sweepRecord struct {
	Mode         string  `json:"mode"` // "weak" | "strong"
	M            int     `json:"m"`
	Ranks        string  `json:"ranks"`
	NRanks       int     `json:"nranks"`
	Pipelined    bool    `json:"pipelined"`
	CoarseRoots  int     `json:"coarse_roots"`
	Iterations   int     `json:"iterations"`
	Converged    bool    `json:"converged"`
	SetupMs      float64 `json:"setup_ms"`
	SolveMs      float64 `json:"solve_ms"`
	ElemPerCoreS float64 `json:"elem_per_core_s"`
	// AllReducesMax is the per-rank allreduce count (max over ranks);
	// ARPerIt is that count divided by the outer iterations — pipelined
	// GCR holds it at 2 where the classical recurrence needs j+3 at basis
	// length j.
	AllReducesMax int64   `json:"allreduces_max"`
	ARPerIt       float64 `json:"allreduce_per_iteration"`
	HaloBytesMax  int64   `json:"halo_bytes_max"`
	HaloMsgsMax   int64   `json:"halo_msgs_max"`
	RetriesTotal  int64   `json:"retries_total"`
	PredHaloBytes float64 `json:"predicted_halo_bytes_per_exchange"`
	// Modeled fabric time (max over ranks, ns) split by operation class:
	// the α–β interconnect cost that would dominate at real scale.
	FabricHaloNsMax      int64 `json:"fabric_halo_ns_max"`
	FabricAllReduceNsMax int64 `json:"fabric_allreduce_ns_max"`
	FabricCoarseNsMax    int64 `json:"fabric_coarse_ns_max"`
}

// sweepPoint is one configuration of the PR6 sweep.
type sweepPoint struct {
	mode       string
	px, py, pz int
	g          int
}

// sweepPoints returns the PR6 sweep: weak scaling holds 2 elements per
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

// runSweepMode runs the PR6 weak+strong scaling sweep with the
// latency-tolerant solver configuration and emits the BENCH_PR6 table
// (and, with -json, the machine-readable document). Identical
// (rank-grid, grid) configurations — the 512-rank corner is shared by
// both scaling curves — are solved once and reported under both modes.
func runSweepMode(deta float64, emitJSON bool, maxRanks int, pipelined bool, aggRoots int) {
	if !emitJSON {
		fmt.Printf("# PR6 scaling sweep (pipelined=%v, agg roots<=%d, fabric=alpha-beta; cores = ranks)\n",
			pipelined, aggRoots)
		fmt.Printf("%-6s %-6s %-7s %6s %4s %12s %10s %6s | %12s %12s %12s\n",
			"mode", "grid", "ranks", "nranks", "its", "solve(s)", "E/C/s", "AR/it",
			"fab-halo(ms)", "fab-AR(ms)", "fab-crs(ms)")
	}
	type cacheKey struct {
		px, py, pz, g int
	}
	cache := map[cacheKey]*sweepRecord{}
	var records []sweepRecord
	for _, pt := range sweepPoints() {
		nr := pt.px * pt.py * pt.pz
		if nr > maxRanks {
			if !emitJSON {
				fmt.Printf("%-6s %-6d %-7s SKIP: above -sweep-max-ranks=%d\n",
					pt.mode, pt.g, fmt.Sprintf("%dx%dx%d", pt.px, pt.py, pt.pz), maxRanks)
			} else {
				log.Printf("sweep %s grid %d %dx%dx%d: SKIP: above -sweep-max-ranks=%d",
					pt.mode, pt.g, pt.px, pt.py, pt.pz, maxRanks)
			}
			continue
		}
		key := cacheKey{pt.px, pt.py, pt.pz, pt.g}
		rec := cache[key]
		if rec == nil {
			rec = sweepOne(pt, deta, pipelined, aggRoots, emitJSON)
			cache[key] = rec
		}
		if rec == nil {
			continue
		}
		r := *rec
		r.Mode = pt.mode
		records = append(records, r)
		if !emitJSON {
			fmt.Printf("%-6s %-6d %-7s %6d %4d %12.3f %10.0f %6.2f | %12.1f %12.1f %12.1f\n",
				r.Mode, r.M, r.Ranks, r.NRanks, r.Iterations, r.SolveMs/1e3,
				r.ElemPerCoreS, r.ARPerIt,
				float64(r.FabricHaloNsMax)/1e6, float64(r.FabricAllReduceNsMax)/1e6,
				float64(r.FabricCoarseNsMax)/1e6)
		}
	}
	if emitJSON {
		doc := struct {
			Schema    string        `json:"schema"`
			Pipelined bool          `json:"pipelined"`
			AggRoots  int           `json:"agg_roots"`
			Results   []sweepRecord `json:"results"`
		}{Schema: "BENCH_PR6", Pipelined: pipelined, AggRoots: aggRoots, Results: records}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatal(err)
		}
	}
}

// sweepOne solves one sweep point and summarises it (nil on skip/fail).
func sweepOne(pt sweepPoint, deta float64, pipelined bool, aggRoots int, emitJSON bool) *sweepRecord {
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

	setupStart := time.Now()
	s, err := stokes.New(mdl.Prob, cfg)
	if err != nil {
		log.Fatal(err)
	}
	setup := time.Since(setupStart)

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
		if emitJSON {
			log.Printf("sweep %s grid %d ranks %s: FAILED (its=%d, err=%v)", pt.mode, pt.g, ranksSpec, res.Iterations, err)
		} else {
			fmt.Printf("%-6s %-6d %-7s FAILED (its=%d, err=%v)\n", pt.mode, pt.g, ranksSpec, res.Iterations, err)
		}
		return nil
	}
	rec := &sweepRecord{
		M: pt.g, Ranks: ranksSpec, NRanks: nr,
		Pipelined: pipelined, CoarseRoots: roots,
		Iterations: res.Iterations, Converged: true,
		SetupMs: setup.Seconds() * 1e3, SolveMs: solve * 1e3,
		ElemPerCoreS:  float64(pt.g*pt.g*pt.g) / float64(nr) / solve,
		PredHaloBytes: perfmodel.HaloExchangeBytes(perfmodel.MaxGhostNodes(pt.g, pt.g, pt.g, pt.px, pt.py, pt.pz)),
	}
	for _, st := range stats {
		rec.AllReducesMax = max(rec.AllReducesMax, st.AllReduces)
		rec.HaloBytesMax = max(rec.HaloBytesMax, st.HaloBytes)
		rec.HaloMsgsMax = max(rec.HaloMsgsMax, st.HaloMsgs)
		rec.RetriesTotal += st.Retries
		rec.FabricHaloNsMax = max(rec.FabricHaloNsMax, st.FabricHaloNs)
		rec.FabricAllReduceNsMax = max(rec.FabricAllReduceNsMax, st.FabricAllReduceNs)
		rec.FabricCoarseNsMax = max(rec.FabricCoarseNsMax, st.FabricCoarseNs)
	}
	if res.Iterations > 0 {
		rec.ARPerIt = float64(rec.AllReducesMax) / float64(res.Iterations)
	}
	return rec
}
