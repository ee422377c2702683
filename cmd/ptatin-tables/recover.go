package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ptatin3d/internal/chkpt"
	"ptatin3d/internal/cli"
	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/telemetry"
)

// recoverDemo exercises the fault-tolerance subsystem on the path the
// distributed solver runs: it applies the 3-sinker viscous operator with
// comm.Dist.ApplyElements — the halo apply under every matrix-free level
// of the distributed V-cycle — over a rank grid (-ranks, 2x2x1 when
// empty) under an injected fault plan (dropped and corrupted halo
// envelopes plus a stalled rank), verifies the recovered result against
// the sequential operator, and prints the injection/recovery counters.
func recoverDemo(c *ctx) error {
	o := c.sinkerFlags("m")
	seed := c.fs.Int64("seed", 42, "fault plan seed")
	drops := c.fs.Int("drops", 4, "halo envelopes to drop")
	corrupts := c.fs.Int("corrupts", 2, "halo payloads to corrupt in flight")
	stall := c.fs.Duration("stall", 50*time.Millisecond, "stall duration for rank 1 (0 disables)")
	c.Register(c.fs, "ranks")
	done, err := c.begin()
	if err != nil {
		return err
	}
	defer done()
	if c.Ranks == "" {
		c.Ranks = "2x2x1"
	}
	px, py, pz, err := cli.ParseRanks(c.Ranks)
	if err != nil {
		return err
	}

	o.Nc, o.Rc = 3, 0.18
	mdl, err := scenario.Compile(scenario.Sinker(*o), 1)
	if err != nil {
		return err
	}
	prob := mdl.Prob
	da := prob.DA
	n := da.NVelDOF()
	u := la.NewVec(n)
	for i := range u {
		u[i] = math.Sin(0.1*float64(i)) + 0.01*float64(i%7)
	}
	ref := la.NewVec(n)
	fem.NewTensor(prob).Apply(u, ref)

	d, err := comm.NewDecomp(da, px, py, pz)
	if err != nil {
		return err
	}
	w := comm.NewWorld(d.Size())
	reg := telemetry.New()
	fp := &comm.FaultPlan{
		Seed:     *seed,
		DropProb: 1, MaxDrops: *drops,
		CorruptProb: 1, MaxCorrupts: *corrupts,
		Telemetry: reg.Root().Child("faults"),
	}
	if *stall > 0 {
		fp.StallRank = 1 % d.Size()
		fp.StallDuration = *stall
	}
	w.SetFaultPlan(fp)

	out := c.stdout
	fmt.Fprintf(out, "# %d ranks (%s), fault plan: %d drops, %d corruptions, stall %v\n",
		d.Size(), c.Ranks, *drops, *corrupts, *stall)

	halo := func(rid int) *telemetry.Scope {
		return reg.Root().Child("halo").Child(fmt.Sprintf("rank%d", rid))
	}
	results := make([]la.Vec, d.Size())
	errs := make([]error, d.Size())
	var mu sync.Mutex
	start := time.Now()
	w.Run(func(r *comm.Rank) {
		y := la.NewVec(n)
		dist := comm.NewDist(r, comm.NewLayout(d, r.ID), halo(r.ID))
		err := dist.ApplyElements(fem.NewTensor(prob), prob.BC.Mask, u, y)
		mu.Lock()
		results[r.ID], errs[r.ID] = y, err
		mu.Unlock()
	})
	elapsed := time.Since(start)

	failed := false
	for rid, err := range errs {
		if err != nil {
			fmt.Fprintf(out, "rank %d: exchange failed beyond recovery: %v\n", rid, err)
			failed = true
		}
	}
	if !failed {
		maxErr := 0.0
		var nodes [27]int32
		for rid := 0; rid < d.Size(); rid++ {
			for _, e := range d.LocalElements(rid) {
				da.ElemNodes(e, &nodes)
				for _, nn := range nodes {
					for dd := 3 * int(nn); dd < 3*int(nn)+3; dd++ {
						maxErr = max(maxErr, math.Abs(results[rid][dd]-ref[dd]))
					}
				}
			}
		}
		fmt.Fprintf(out, "recovered in %v; max error vs sequential operator: %.3e (rel %.3e)\n",
			elapsed.Round(time.Millisecond), maxErr, maxErr/ref.NormInf())
	}

	fmt.Fprintf(out, "injected: drops=%d delays=%d corruptions=%d stalls=%d\n",
		fp.Drops(), fp.Delays(), fp.Corruptions(), fp.Stalls())
	var retries, resends, rejected, recovered int64
	for rid := 0; rid < d.Size(); rid++ {
		sc := halo(rid)
		retries += sc.Counter("retries").Value()
		resends += sc.Counter("resends_served").Value()
		rejected += sc.Counter("corrupt_rejected").Value()
		recovered += sc.Counter("recovered_exchanges").Value()
	}
	fmt.Fprintf(out, "recovery: retries=%d resends_served=%d corrupt_rejected=%d recovered_exchanges=%d\n",
		retries, resends, rejected, recovered)
	if failed {
		return fmt.Errorf("an exchange failed beyond recovery")
	}
	return nil
}

// inspect decodes a checkpoint and prints its content summary; a corrupt
// or truncated file is a typed chkpt error and exit 1.
func inspect(c *ctx) error {
	if _, err := c.begin(); err != nil {
		return err
	}
	if c.fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "usage: ptatin-tables inspect FILE")
		return errUsage
	}
	path := c.fs.Arg(0)
	st, err := chkpt.Load(path)
	if err != nil {
		return err
	}
	out := c.stdout
	fmt.Fprintf(out, "checkpoint %s (format v%d)\n", path, chkpt.Version)
	fmt.Fprintf(out, "  step      %d\n", st.StepNum)
	fmt.Fprintf(out, "  time      %g\n", st.Time)
	fmt.Fprintf(out, "  grid      %dx%dx%d elements\n", st.Mx, st.My, st.Mz)
	fmt.Fprintf(out, "  coords    %d values (%d vertices)\n", len(st.Coords), len(st.Coords)/3)
	fmt.Fprintf(out, "  state     %d DOFs\n", len(st.X))
	if st.Temp != nil {
		fmt.Fprintf(out, "  temp      %d vertices\n", len(st.Temp))
	} else {
		fmt.Fprintf(out, "  temp      (absent)\n")
	}
	fmt.Fprintf(out, "  points    %d\n", st.NPoints())
	if np := st.NPoints(); np > 0 {
		var plas float64
		unloc := 0
		for i := 0; i < np; i++ {
			plas += st.Plastic[i]
			if st.Elem[i] < 0 {
				unloc++
			}
		}
		fmt.Fprintf(out, "  plastic   mean %.4g\n", plas/float64(np))
		fmt.Fprintf(out, "  unlocated %d\n", unloc)
	}
	return nil
}
