package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ptatin3d/internal/amg"
	"ptatin3d/internal/chkpt"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/model"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/op"
	"ptatin3d/internal/par"
	"ptatin3d/internal/stokes"
)

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianMs times f reps times and returns the median in milliseconds.
// prep, when non-nil, runs untimed before each repetition.
func medianMs(reps int, prep, f func()) float64 {
	t := make([]float64, max(1, reps))
	for i := range t {
		if prep != nil {
			prep()
		}
		start := time.Now()
		f()
		t[i] = msOf(time.Since(start))
	}
	return median(t)
}

func clonePoints(p *mpm.Points) *mpm.Points {
	return &mpm.Points{
		X: append([]float64(nil), p.X...), Y: append([]float64(nil), p.Y...), Z: append([]float64(nil), p.Z...),
		Litho: append([]int32(nil), p.Litho...), Plastic: append([]float64(nil), p.Plastic...),
		Elem: append([]int32(nil), p.Elem...),
		Xi:   append([]float64(nil), p.Xi...), Et: append([]float64(nil), p.Et...), Ze: append([]float64(nil), p.Ze...),
	}
}

// replay measures each layer's public entry point on the model's live
// state after the last timed step. Point-moving calls work on a deep
// copy of the points and the temperature; the projection replays install
// placeholder coefficients, which the UpdateCoefficients replay that
// follows them puts right.
type replay struct {
	m       *model.Model
	ms      metricSet
	reps    int
	dt      float64
	workers int
}

func (r *replay) mpm() {
	m, prob, pts := r.m, r.m.Prob, r.m.Points
	r.ms["mpm.points"] = float64(pts.Len())
	minCount := math.MaxInt
	for _, c := range mpm.CountPerElement(prob, pts) {
		minCount = min(minCount, c)
	}
	r.ms["mpm.points_per_el_min"] = float64(minCount)

	etaOf := func(i int) float64 { return m.Lith[pts.Litho[i]].Eta0 }
	rhoOf := func(i int) float64 { return m.Lith[pts.Litho[i]].Rho0 }
	r.ms["mpm.project_cold_ms"] = medianMs(r.reps, nil, func() {
		mpm.NewProjector(prob).ProjectLithologyFields(pts, etaOf, rhoOf, nil, nil)
	})
	pj := mpm.NewProjector(prob)
	pj.ProjectLithologyFields(pts, etaOf, rhoOf, nil, nil)
	r.ms["mpm.project_warm_ms"] = medianMs(r.reps, nil, func() {
		pj.ProjectLithologyFields(pts, etaOf, rhoOf, nil, nil)
	})

	u := m.X[:prob.DA.NVelDOF()]
	var cp *mpm.Points
	fresh := func() { cp = clonePoints(pts) }
	adv := medianMs(r.reps, fresh, func() { mpm.AdvectRK2(prob, u, r.dt, cp, r.workers) })
	r.ms["mpm.advect_ms"] = adv
	r.ms["mpm.advect_mpts_s"] = float64(pts.Len()) / adv / 1e3
	r.ms["mpm.locate_all_ms"] = medianMs(r.reps, fresh, func() { mpm.LocateAll(prob, cp) })
	if m.MinPointsPerElement > 0 {
		r.ms["mpm.popctl_ms"] = medianMs(r.reps, fresh, func() {
			mpm.EnsureMinPerElement(prob, cp, m.MinPointsPerElement, 2)
		})
	}
}

func (r *replay) model() error {
	m := r.m
	r.ms["model.update_coeff_ms"] = medianMs(r.reps, nil, func() { m.UpdateCoefficients(m.X, false) })
	if m.T != nil && m.Temp != nil {
		u := m.X[:m.Prob.DA.NVelDOF()]
		temp := make([]float64, len(m.Temp))
		var err error
		r.ms["thermal.step_ms"] = medianMs(r.reps, func() { copy(temp, m.Temp) }, func() {
			if e := m.T.Step(temp, u, r.dt); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("thermal replay: %w", err)
		}
	}
	return nil
}

func (r *replay) checkpoint() error {
	dir, err := os.MkdirTemp(".", ".bench_tmp_")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.chkpt")
	r.ms["chkpt.save_ms"] = medianMs(r.reps, nil, func() {
		if e := r.m.SaveCheckpoint(path); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.ms["chkpt.mb"] = float64(fi.Size()) / (1 << 20)
	r.ms["chkpt.load_ms"] = medianMs(r.reps, nil, func() {
		if _, e := chkpt.Load(path); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	return nil
}

// stokesSetup replays the solver set-up on a harness-owned context, with
// the configuration SolveStokes builds for each relinearisation.
func (r *replay) stokesSetup() error {
	m := r.m
	cfg := m.Cfg
	cfg.Workers = m.Workers
	cfg.VerticalAxis = m.VerticalAxis
	cfg.CoeffCoarsen = m.CoeffCoarsener()
	// A set-up costs 0.3 s and more at 16³: three repetitions at most.
	heavy := min(r.reps, 3)
	var err error
	prepare := func(c *stokes.Context) {
		if _, _, e := c.Prepare(m.Prob, cfg); e != nil {
			err = e
		}
	}
	r.ms["stokes.setup_cold_ms"] = medianMs(heavy, nil, func() { prepare(new(stokes.Context)) })
	ctx := new(stokes.Context)
	prepare(ctx)
	r.ms["stokes.setup_refresh_ms"] = medianMs(heavy, nil, func() { prepare(ctx) })
	r.ms["stokes.setup_refresh_geom_ms"] = medianMs(heavy, nil, func() {
		ctx.InvalidateGeometry()
		prepare(ctx)
	})
	if err != nil {
		return fmt.Errorf("stokes set-up replay: %w", err)
	}
	return nil
}

// stokesApply replays the pieces of one preconditioned Krylov iteration
// on the solver the last step left behind: the Schur and coupling blocks
// of the field split, and the V-cycle taken apart level by level.
func (r *replay) stokesApply() error {
	s := r.m.LastStokes
	if s == nil {
		return fmt.Errorf("no Stokes solver after the timed steps")
	}
	nu, np := s.Op.Nu, s.Op.Np
	u := la.Vec(r.m.X[:nu])
	p := la.Vec(r.m.X[nu : nu+np])
	yu, yp := la.NewVec(nu), la.NewVec(np)
	r.ms["stokes.schur_ms"] = medianMs(r.reps, nil, func() { s.Mp.ApplyInv(p, yp) })
	r.ms["stokes.coupling_d_ms"] = medianMs(r.reps, nil, func() { s.C.ApplyD(u, yp) })
	r.ms["stokes.coupling_g_ms"] = medianMs(r.reps, yu.Zero, func() { s.C.ApplyGAdd(p, yu) })
	if s.MG == nil {
		return nil
	}
	return r.vcycle(s.MG, u)
}

func smoothLevel(lev *mg.Level, b, x la.Vec, zeroGuess bool) {
	if lev.Blocked != nil {
		lev.Blocked.Smooth(b, x, zeroGuess)
		return
	}
	lev.Smoother.Smooth(b, x, zeroGuess)
}

func (r *replay) vcycle(g *mg.MG, u la.Vec) error {
	// A residual with the solution's spatial structure: r = A·u.
	res := la.NewVec(len(u))
	g.Levels[0].Op.Apply(u, res)
	z := la.NewVec(len(u))
	r.ms["mg.vcycle_ms"] = medianMs(r.reps, nil, func() { g.Apply(res, z) })

	// Walk down the hierarchy once, timing each piece of the cycle on
	// the vectors the cycle itself would hand it.
	b := res
	for l := 0; l+1 < len(g.Levels); l++ {
		lev, next := g.Levels[l], g.Levels[l+1]
		n := lev.Op.N()
		x, rl, e := la.NewVec(n), la.NewVec(n), la.NewVec(n)
		bc, ec := la.NewVec(next.Op.N()), la.NewVec(next.Op.N())
		pre := medianMs(r.reps, nil, func() { smoothLevel(lev, b, x, true) })
		post := medianMs(r.reps, nil, func() { smoothLevel(lev, b, x, false) })
		opMs := medianMs(r.reps, nil, func() { lev.Op.Apply(x, rl) })
		rl.AYPX(-1, b)
		restrict := medianMs(r.reps, nil, func() { next.P.ApplyTranspose(rl, bc) })
		prolong := medianMs(r.reps, nil, func() { next.P.Apply(ec, e) })
		if l < 2 {
			sfx := fmt.Sprintf(".l%d", l)
			// One V-cycle visits a level's smoother twice: the pre-smooth
			// from a zero guess and the post-smooth.
			r.ms["mg.smooth_ms"+sfx] = pre + post
			r.ms["mg.op_apply_ms"+sfx] = opMs
			r.ms["mg.restrict_ms"+sfx] = restrict
			r.ms["mg.prolong_ms"+sfx] = prolong
		}
		b = bc
	}
	last := g.Levels[len(g.Levels)-1]
	ec := la.NewVec(last.Op.N())
	if g.CoarseSolve != nil {
		r.ms["mg.coarse_solve_ms"] = medianMs(r.reps, nil, func() { g.CoarseSolve.Apply(b, ec) })
	}
	if a := last.Op.CSR(); a != nil && last.Prob != nil {
		opt := amg.GAMGLike()
		opt.SmoothSteps = max(1, r.m.Cfg.SmoothSteps)
		nns := amg.RigidBodyModes(last.Prob.DA.Coords, last.Prob.BC.Mask)
		var err error
		r.ms["amg.setup_ms"] = medianMs(r.reps, nil, func() {
			if _, e := amg.New(a, 3, nns, opt); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("amg set-up replay: %w", err)
		}
	}
	return nil
}

// kernels builds each operator representation on the workload's fine
// problem with op.New and states its apply against the machine balance
// measured in this run. t1 is the plain single-threaded baseline: the
// matrix-free kernels at Problem.Workers = 1, the assembled one as a
// serial CSR product.
func (r *replay) kernels(h hostInfo) error {
	prob := r.m.Prob
	defer func(w int) { prob.Workers = w }(prob.Workers)
	n := prob.DA.NVelDOF()
	x, y := la.NewVec(n), la.NewVec(n)
	copy(x, r.m.X[:n])
	for _, name := range opKinds {
		kind, err := op.ParseKind(name)
		if err != nil {
			return fmt.Errorf("kernel replay: %w", err)
		}
		prob.Workers = r.workers
		o, err := op.New(kind, op.Env{Prob: prob, Workers: r.workers})
		if err != nil {
			return fmt.Errorf("kernel replay %s: %w", name, err)
		}
		start := time.Now()
		if err := o.Setup(); err != nil {
			return fmt.Errorf("kernel replay %s: %w", name, err)
		}
		r.ms["op.setup_ms."+name] = msOf(time.Since(start))
		tw := medianMs(r.reps, nil, func() { o.Apply(x, y) })
		var t1 float64
		if a := o.CSR(); a != nil {
			t1 = medianMs(r.reps, nil, func() { a.MulVec(x, y) })
		} else {
			prob.Workers = 1
			t1 = medianMs(r.reps, nil, func() { o.Apply(x, y) })
		}
		c := o.Cost()
		roofMs := 1e3 * max(c.ApplyFlops/(h.GFlops*1e9), c.ApplyBytes/(h.StreamGBs*1e9))
		r.ms["op.apply_ms."+name] = tw
		r.ms["op.mdof_s."+name] = float64(n) / tw / 1e3
		r.ms["op.roofline_frac."+name] = roofMs / t1
		r.ms["op.par_eff."+name] = t1 / (float64(r.workers) * tw)
		r.ms["op.bytes_per_dof_computed."+name] = c.ApplyBytes / float64(n)
	}

	// The level-1 assembled operator is what the V-cycle's second level
	// streams on every smoother step: serial SpMV against STREAM.
	if s := r.m.LastStokes; s != nil && s.MG != nil && len(s.MG.Levels) > 1 {
		if a := s.MG.Levels[1].Op.CSR(); a != nil {
			xs, ys := la.NewVec(a.NCols), la.NewVec(a.NRows)
			xs.Set(1)
			t := medianMs(r.reps, nil, func() { a.MulVec(xs, ys) })
			bytes := 16*float64(a.NNZ()) + 24*float64(a.NRows)
			r.ms["la.spmv_gbs"] = bytes / t / 1e6
			r.ms["la.spmv_bw_frac"] = r.ms["la.spmv_gbs"] / h.StreamGBs
		}
	}
	return nil
}

// dispatch times an empty-body par.For: what one parallel region costs
// before it does any work.
func (r *replay) dispatch() {
	const calls = 2000
	r.ms["par.dispatch_us"] = medianMs(r.reps, nil, func() {
		for i := 0; i < calls; i++ {
			par.For(r.workers, r.workers, func(lo, hi int) {})
		}
	}) * 1e3 / calls
}
