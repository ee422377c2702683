package main

import (
	"fmt"
	"time"

	"ptatin3d/internal/cli"
	"ptatin3d/internal/la"
	"ptatin3d/internal/op"
	"ptatin3d/internal/perfmodel"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// table2 regenerates Tables II and III of the paper at laptop scale:
// iterations, solver set-up and coarse-grid apply time and Stokes
// time-to-solution for the assembled (Asmb), reference matrix-free (MF)
// and tensor-product (Tens) fine-level operators, across a grid × worker
// ("cores") sweep, plus the efficiency metrics elements/core/second and
// GF/s derived from the analytic flop counts of the performance model.
//
// The paper sweeps 64³–192³ elements over 192–12,288 MPI cores on a Cray
// XC-30; this reproduction sweeps (by default) 8³–16³ elements over 1–4
// worker goroutines sharing one node — the regime where the paper's
// memory-bandwidth argument lives (see DESIGN.md). With -ranks each grid
// is instead solved collectively over a simulated rank grid.
func table2(c *ctx) error {
	grids := c.fs.String("grids", "8,12,16", "comma-separated grid sizes (elements/direction)")
	cores := c.fs.String("cores", "1,2,4", "comma-separated worker counts (0 entries = runtime.NumCPU())")
	o := c.sinkerFlags("deta")
	c.Register(c.fs, "op", "ranks", "telemetry", "cpuprofile")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()

	gridList, err := cli.ParseInts(*grids)
	if err != nil {
		return err
	}
	if c.Ranks != "" {
		return table2Ranks(c, *o, gridList)
	}
	coreList, err := cli.ParseInts(*cores)
	if err != nil {
		return err
	}
	cli.WorkersList(coreList)

	// Per fine kind: the SpMV column label and the perfmodel row its flop
	// count comes from.
	label := map[op.Kind][2]string{
		op.Assembled: {"Asmb", "Assembled"},
		op.MFRef:     {"MF", "Matrix-free"},
		op.Tensor:    {"Tens", "Tensor"},
		op.Galerkin:  {"Galk", "Assembled"},
	}
	counts := map[string]perfmodel.OpCounts{}
	for _, oc := range perfmodel.ReproCounts() {
		counts[oc.Name] = oc
	}
	kinds := []op.Kind{op.Assembled, op.MFRef, op.Tensor}
	if c.Op != "" {
		k, err := op.ParseKind(c.Op)
		if err != nil {
			return err
		}
		kinds = []op.Kind{k}
	}

	out := c.stdout
	fmt.Fprintln(out, "# Table II/III reproduction (laptop scale; see DESIGN.md substitutions)")
	fmt.Fprintf(out, "%-6s %-6s %-5s %4s %12s %12s %12s | %10s %9s %8s\n",
		"grid", "cores", "SpMV", "its", "setup(s)", "coarse-apply", "solve(s)",
		"E/C/s", "GF/C/s", "GF/s")
	for _, g := range gridList {
		for _, workers := range coreList {
			for _, kind := range kinds {
				o.M = g
				s, bu, err := sinkerSolver(*o, workers, func(cfg *stokes.Config) {
					cfg.FineKind = kind
					cfg.Params.MaxIt = 1000
					cfg.Telemetry = c.reg.Root().Child(fmt.Sprintf("g%d_w%d_%s", g, workers, label[kind][0]))
				})
				if err != nil {
					return err
				}
				start := time.Now()
				res := s.Solve(la.NewVec(s.Op.N()), bu, nil)
				solve := time.Since(start).Seconds()
				if !res.Converged {
					fmt.Fprintf(out, "%-6d %-6d %-5s FAILED after %d its\n", g, workers, label[kind][0], res.Iterations)
					continue
				}
				coarseApply := s.Tel.Child("mg").Child("coarse").Timer("solve").Elapsed()
				nel := float64(g * g * g)
				// GF/s attribution, as the paper's: the fine operator's flops
				// per Krylov iteration times a V(2,2) multiplier (2 pre + 2
				// post smoother applies + residual + λmax share + matvec).
				const vcycleOps = 7.0
				gfs := counts[label[kind][1]].Flops * nel * float64(res.Iterations) * vcycleOps / 1e9 / solve
				fmt.Fprintf(out, "%-6d %-6d %-5s %4d %12.3f %12.3f %12.3f | %10.0f %9.3f %8.2f\n",
					g, workers, label[kind][0], res.Iterations,
					s.SetupTime.Seconds(), coarseApply.Seconds(), solve,
					nel/float64(workers)/solve, gfs/float64(workers), gfs)
			}
		}
	}
	fmt.Fprintln(out, "\n# Shape check (paper): MF uniformly faster than Asmb; Tens uniformly")
	fmt.Fprintln(out, "# faster than MF; E/C/s highest for Tens; iterations roughly flat in cores.")
	return nil
}

// table2Ranks reproduces the Tables II/III shape for the rank-distributed
// solve: each grid is solved collectively over a px×py×pz simulated MPI
// world (cores = ranks — the paper's flat-MPI mapping), reporting
// iterations, time-to-solution, elements/core/s and the per-rank
// halo/allreduce traffic next to the analytic halo-volume prediction of
// the performance model. Grids whose multigrid hierarchy the rank grid
// cannot decompose evenly (nesting requires Px,Py,Pz to divide the element
// counts at every level) are reported and skipped.
func table2Ranks(c *ctx, o scenario.SinkerOptions, grids []int) error {
	px, py, pz, err := cli.ParseRanks(c.Ranks)
	if err != nil {
		return err
	}
	nr := px * py * pz
	out := c.stdout
	fmt.Fprintf(out, "# Table II/III shape, rank-distributed (%s = %d ranks; cores = ranks)\n", c.Ranks, nr)
	fmt.Fprintf(out, "%-6s %-7s %4s %12s %12s %10s | %12s %12s %10s\n",
		"grid", "ranks", "its", "setup(s)", "solve(s)", "E/C/s",
		"halo-B/rank", "pred-B/exch", "allreduces")
	for _, g := range grids {
		o.M = g
		s, bu, err := sinkerSolver(o, 1, func(cfg *stokes.Config) {
			cfg.FineKind = op.Tensor
			cfg.Params.MaxIt = 1000
			cfg.Telemetry = c.reg.Root().Child(fmt.Sprintf("g%d_r%s", g, c.Ranks))
		})
		if err != nil {
			return err
		}
		start := time.Now()
		res, stats, err := s.SolveDistributed(la.NewVec(s.Op.N()), bu, px, py, pz)
		solve := time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(out, "%-6d %-7s SKIP: %v\n", g, c.Ranks, err)
			continue
		}
		if !res.Converged {
			fmt.Fprintf(out, "%-6d %-7s FAILED after %d its\n", g, c.Ranks, res.Iterations)
			continue
		}
		pred := perfmodel.HaloExchangeBytes(perfmodel.MaxGhostNodes(g, g, g, px, py, pz))
		var maxBytes, maxAR int64
		for _, st := range stats {
			maxBytes = max(maxBytes, st.HaloBytes)
			maxAR = max(maxAR, st.AllReduces)
		}
		fmt.Fprintf(out, "%-6d %-7s %4d %12.3f %12.3f %10.0f | %12d %12.0f %10d\n",
			g, c.Ranks, res.Iterations, s.SetupTime.Seconds(), solve, float64(g*g*g)/float64(nr)/solve,
			maxBytes, pred, maxAR)
		for _, st := range stats {
			fmt.Fprintf(out, "#   rank %2d: halo %6d msgs %10d B, %5d allreduces\n",
				st.Rank, st.HaloMsgs, st.HaloBytes, st.AllReduces)
		}
	}
	return nil
}

// sweepPoint is one configuration of the sweep.
type sweepPoint struct {
	mode       string
	px, py, pz int
	g          int
}

// sweepPoints is the sweep: weak scaling holds 2 elements per rank per
// axis (the whole problem grows with the machine), strong scaling holds
// the 16³ grid fixed while the rank grid grows — both over 1, 8, 64, 512
// ranks. Every grid nests 2:1 under its rank grid at both hierarchy
// levels, so the distributed V-cycle decomposes evenly.
var sweepPoints = []sweepPoint{
	{"weak", 1, 1, 1, 2}, {"weak", 2, 2, 2, 4}, {"weak", 4, 4, 4, 8}, {"weak", 8, 8, 8, 16},
	{"strong", 1, 1, 1, 16}, {"strong", 2, 2, 2, 16}, {"strong", 4, 4, 4, 16}, {"strong", 8, 8, 8, 16},
}

// sweepRow is one solved (rank-grid, grid) point: per-rank detail
// summarised as the max over ranks.
type sweepRow struct {
	iterations int
	solveS     float64
	// arPerIt is the per-rank allreduce count over the outer iterations:
	// GCR's modified Gram–Schmidt needs j+3 at basis length j.
	arPerIt float64
	// Modeled fabric time (max over ranks, ns): the α–β interconnect cost
	// of the counted messages (halo and coarse-gather packets alike) and
	// allreduces, the cost that would dominate at real scale.
	fabricMsgNs, fabricAllReduceNs int64
}

// sweep runs the rank-distributed solve over 1–512 simulated ranks, the
// coarse solve gathered to rank 0, and prices each rank's message and
// allreduce counts with the α–β fabric model. GCR reduces j+3 times at
// basis length j (AR/it column: 21 on the 16³ rows) and takes the same
// iteration count on every rank grid: the strong-16 rows read 37, which
// scripts/check.sh asserts. Identical (rank-grid, grid) configurations —
// the 512-rank corner is shared by both scaling curves — are solved once
// and reported under both modes.
func sweep(c *ctx) error {
	o := c.sinkerFlags("deta")
	maxRanks := c.fs.Int("sweep-max-ranks", 512, "skip sweep points above this rank count (bounded smoke runs)")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()

	out := c.stdout
	fmt.Fprintln(out, "# scaling sweep (coarse solve on rank 0, fabric=alpha-beta on the counted messages; cores = ranks)")
	fmt.Fprintf(out, "%-6s %-6s %-7s %6s %4s %12s %10s %6s | %12s %12s\n",
		"mode", "grid", "ranks", "nranks", "its", "solve(s)", "E/C/s", "AR/it",
		"fab-msg(ms)", "fab-AR(ms)")
	type key struct{ px, py, pz, g int }
	solved := map[key]*sweepRow{}
	for _, pt := range sweepPoints {
		nr := pt.px * pt.py * pt.pz
		ranks := fmt.Sprintf("%dx%dx%d", pt.px, pt.py, pt.pz)
		if nr > *maxRanks {
			fmt.Fprintf(out, "%-6s %-6d %-7s SKIP: above -sweep-max-ranks=%d\n", pt.mode, pt.g, ranks, *maxRanks)
			continue
		}
		k := key{pt.px, pt.py, pt.pz, pt.g}
		r, seen := solved[k]
		if !seen {
			o.M = pt.g
			var err error
			if r, err = sweepOne(pt, *o); err != nil {
				fmt.Fprintf(out, "%-6s %-6d %-7s FAILED (%v)\n", pt.mode, pt.g, ranks, err)
			}
			solved[k] = r
		}
		if r == nil {
			continue
		}
		fmt.Fprintf(out, "%-6s %-6d %-7s %6d %4d %12.3f %10.0f %6.2f | %12.1f %12.1f\n",
			pt.mode, pt.g, ranks, nr, r.iterations, r.solveS,
			float64(pt.g*pt.g*pt.g)/float64(nr)/r.solveS, r.arPerIt,
			float64(r.fabricMsgNs)/1e6, float64(r.fabricAllReduceNs)/1e6)
	}
	return nil
}

// sweepOne solves one sweep point and summarises it.
func sweepOne(pt sweepPoint, o scenario.SinkerOptions) (*sweepRow, error) {
	s, bu, err := sinkerSolver(o, 1, func(cfg *stokes.Config) {
		cfg.FineKind = op.Tensor
		cfg.Params.MaxIt = 1000
		// Two geometric levels everywhere: the coarsest level's g/2
		// elements per axis must still host the rank grid (nesting requires
		// every level to decompose), and the whole sweep should run one
		// hierarchy shape so the scaling curves compare like against like.
		cfg.Levels = 2
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, stats, err := s.SolveDistributed(la.NewVec(s.Op.N()), bu, pt.px, pt.py, pt.pz)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("not converged after %d iterations", res.Iterations)
	}
	row := &sweepRow{iterations: res.Iterations, solveS: time.Since(start).Seconds()}
	// Every allreduce of the solve is one value wide (one dot product).
	fab := perfmodel.DefaultFabric()
	arNs := fab.AllReduceNs(len(stats), 1)
	var allReduces int64
	for _, st := range stats {
		allReduces = max(allReduces, st.AllReduces)
		row.fabricMsgNs = max(row.fabricMsgNs, fab.TrafficNs(st.HaloMsgs, st.HaloBytes))
		row.fabricAllReduceNs = max(row.fabricAllReduceNs, st.AllReduces*arNs)
	}
	if res.Iterations > 0 {
		row.arPerIt = float64(allReduces) / float64(res.Iterations)
	}
	return row, nil
}
