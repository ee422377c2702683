package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// runOptions are the flags a workload run takes.
type runOptions struct {
	seed      int64
	seconds   int
	traced    bool
	reps      int
	traceOut  string
	updateRef bool
	refDir    string
}

// session is one compiled model behind the recording backend, with the
// step accounting the failure check needs.
type session struct {
	w       workload
	m       *model.Model
	rec     *recBackend
	tr      *tracer
	clock   *hostClock
	workers int

	compile time.Duration
	setup   lap

	attempted, failed int
	lastFailed        bool // the most recent step failed its check
	// Totals over the timed steps (the warm-up step is checked but not
	// counted here).
	solves, unconvergedSolves int
	relResMax                 float64
}

// setUp is the workload's set-up as setup_s times it: generate the spec
// from the seed, compile it, build the backend, and advance the cold
// first step (cold solver build, cold projector, cold operator caches).
func setUp(w workload, seed int64, traced bool, clock *hostClock) (*session, error) {
	start := time.Now()
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, tr: newTracer(traced), clock: clock, workers: benchWorkers}
	var inner model.StokesBackend = model.SharedBackend{}
	if w.ranks > 1 {
		s.workers = 1
		inner = model.NewDistributedBackend(w.ranks, 1, 1, stokes.DistOptions{})
	}
	t0 := time.Now()
	s.m, err = scenario.Compile(spec, s.workers)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	s.compile = time.Since(t0)
	s.rec = &recBackend{inner: inner, tr: s.tr}
	s.m.Backend = s.rec
	s.step()
	end := time.Now()
	s.setup = lap{wall: end.Sub(start).Seconds(), slowdown: clock.slowdown(start, end)}
	return s, nil
}

// step advances one time step inside a model.step span and applies the
// failure check. The span's step id is the model's step number before
// the call: 0 for the warm-up step, 1..N for the timed ones.
func (s *session) step() lap {
	timed := s.m.StepNum > 0
	s.tr.step = s.m.StepNum
	id := s.tr.begin(spanStep)
	start := time.Now()
	err := s.m.StepForward()
	end := time.Now()
	s.tr.end(id)
	d := lap{wall: end.Sub(start).Seconds(), slowdown: s.clock.slowdown(start, end)}

	s.attempted++
	var why []string
	if err != nil {
		why = append(why, fmt.Sprintf("StepForward: %v", err))
	}
	if la.Vec(s.m.X).HasNaN() {
		why = append(why, "state is not finite")
	}
	for i, r := range s.rec.takeResults() {
		rel := r.Residual / math.Max(r.Residual0, math.SmallestNonzeroFloat64)
		if timed {
			s.solves++
			s.relResMax = math.Max(s.relResMax, rel)
		}
		switch {
		case r.Err != nil:
			why = append(why, fmt.Sprintf("inner Krylov solve %d: %v", i+1, r.Err))
		case !r.Converged:
			why = append(why, fmt.Sprintf("inner Krylov solve %d unconverged after %d its (relative residual %.3g)", i+1, r.Iterations, rel))
		default:
			continue
		}
		if timed {
			s.unconvergedSolves++
		}
	}
	s.lastFailed = len(why) > 0
	if s.lastFailed {
		s.failed++
		for _, line := range why {
			fmt.Printf("FAILED step %d: %s\n", s.attempted-1, line)
		}
	}
	return d
}

// split lays a series of timed intervals out as wall seconds, seconds at
// the reference host speed, and slowdowns.
func split(ts []lap) (wall, atRef, slowdown []float64) {
	for _, t := range ts {
		wall = append(wall, t.wall)
		atRef = append(atRef, t.atRef())
		slowdown = append(slowdown, t.slowdown)
	}
	return wall, atRef, slowdown
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// timedStats returns the model's records of the timed steps (the warm-up
// step is record 1).
func (s *session) timedStats() []model.StepStats {
	var out []model.StepStats
	for _, st := range s.m.Stats {
		if st.Step > 1 {
			out = append(out, st)
		}
	}
	return out
}

// runWorkload runs one workload in this process and returns the result
// line. Untraced it reports the end-to-end metrics; traced it reports
// the per-layer ones.
func runWorkload(w workload, o runOptions) (result, error) {
	steps := w.timedSteps(o.seconds)
	clock := startHostClock()
	defer clock.close()
	s, err := setUp(w, o.seed, o.traced, clock)
	if err != nil {
		return result{}, err
	}
	setups := []lap{s.setup}

	var mem0, mem1 runtime.MemStats
	if o.traced {
		runtime.ReadMemStats(&mem0)
	}
	// A collection between steps, outside the laps: each step starts from
	// the live heap. Left to the pacer, whether one step's ~200 MB of
	// working vectors are freed before the next step allocates its own is
	// a matter of timing, and peak_rss_mb on sinker16-r2 read 420 or 630.
	stepTimes := make([]lap, steps)
	for i := range stepTimes {
		runtime.GC()
		stepTimes[i] = s.step()
	}
	// A final state that differs from the reference is the last step's
	// wrong output: it fails that step, once.
	mismatch, err := s.checkReference(o, steps)
	if err != nil {
		return result{}, err
	}
	if mismatch && !s.lastFailed {
		s.failed++
	}
	if o.traced {
		runtime.ReadMemStats(&mem1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	stepWall, stepRef, stepSlow := split(stepTimes)

	ms := metricSet{}
	defs := endToEndMetrics
	if o.traced {
		// The replays are timed bare: the host clock stops first.
		clock.close()
		defs = perLayerMetrics
		ms["host.slowdown"] = median(stepSlow)
		allocMB := float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / float64(steps)
		if err := s.layerMetrics(ms, o, steps, allocMB); err != nil {
			return result{}, err
		}
		if o.traceOut != "" {
			if err := s.tr.write(o.traceOut, w.name, o.seed); err != nil {
				return result{}, err
			}
		}
	} else {
		// Repeat set-up after the peak RSS is read, so that the memory of
		// the repetitions does not count against the workload.
		for len(setups) < w.setups {
			s2, err := setUp(w, o.seed, false, clock)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, s2.setup)
			s.attempted += s2.attempted
			s.failed += s2.failed
		}
		_, setupRef, _ := split(setups)
		ms["run_s"] = sum(stepRef)
		ms["step_s"] = median(stepRef)
		ms["setup_s"] = median(setupRef)
		ms["peak_rss_mb"] = rss
	}

	fmt.Printf("workload %s seed %d: 1 warm-up + %d timed steps, traced=%v\n", w.name, o.seed, steps, o.traced)
	fmt.Printf("  at the reference host speed: run_s %.4f, step_s median %.4f over %d samples", sum(stepRef), median(stepRef), steps)
	if steps >= 20 {
		sorted := slices.Clone(stepRef)
		slices.Sort(sorted)
		fmt.Printf(", p90 %.4f", sorted[int(math.Ceil(0.9*float64(steps)))-1])
	}
	fmt.Println()
	fmt.Printf("  wall clock: run %.4f s, step median %.4f s; host slowdown per step median %.3f, range %.3f-%.3f\n",
		sum(stepWall), median(stepWall), median(stepSlow), slices.Min(stepSlow), slices.Max(stepSlow))
	setupWall, setupRef, setupSlow := split(setups)
	fmt.Printf("  set-up: wall %.4f s, slowdown %.3f, at reference speed %.4f s; peak RSS %.1f MB\n", setupWall, setupSlow, setupRef, rss)
	n, p10, med := clock.summary()
	fmt.Printf("  host clock: %d samples, tenth percentile %.4f ms, median %.4f ms (a slowdown of 1 is %.4f ms)\n", n, p10, med, 1e3*clockRefSeconds)
	fmt.Print("  per timed step (nonlinear its, Krylov its):")
	for _, st := range s.timedStats() {
		fmt.Printf(" (%d, %d)", st.NewtonIts, st.KrylovIts)
	}
	fmt.Println()
	vals, err := ms.report(defs)
	if err != nil {
		return result{}, err
	}
	printMetrics(defs, vals)
	fmt.Printf("  steps attempted %d, failed %d\n", s.attempted, s.failed)
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: vals}, nil
}

// checkReference compares the state after the last timed step with the
// checked-in reference (or rewrites it, with -update-ref). It applies
// at the default seed and step count only; at any other seed the
// per-step invariant checks are all there is.
func (s *session) checkReference(o runOptions, steps int) (mismatch bool, err error) {
	if o.seed != defaultSeed || steps != s.w.steps {
		fmt.Printf("reference: not compared (seed %d, %d timed steps; the reference is at seed %d, %d steps)\n",
			o.seed, steps, defaultSeed, s.w.steps)
		return false, nil
	}
	var its []int
	for _, st := range s.timedStats() {
		its = append(its, st.KrylovIts)
	}
	u := la.Vec(s.m.X[:s.m.Prob.DA.NVelDOF()])
	got := makeReference(s.w.name, o.seed, steps, s.m.Points.Len(), u, its)
	if o.updateRef {
		if err := got.save(o.refDir); err != nil {
			return false, fmt.Errorf("update reference: %w", err)
		}
		fmt.Printf("reference: wrote %s/%s.json\n", o.refDir, s.w.name)
		return false, nil
	}
	ref, err := loadReference(s.w.name)
	if err != nil {
		return false, fmt.Errorf("reference for %s (write it with -update-ref): %w", s.w.name, err)
	}
	bad := ref.compare(got, s.w.tol)
	for _, line := range bad {
		fmt.Printf("FAILED reference: %s\n", line)
	}
	if fmt.Sprint(got.KrylovIts) != fmt.Sprint(ref.KrylovIts) {
		fmt.Printf("reference: krylov its per step %v, reference %v (not a failure)\n", got.KrylovIts, ref.KrylovIts)
	}
	return len(bad) > 0, nil
}

// layerMetrics turns the spans of the timed steps and the replays on the
// live state into the per-layer metrics.
func (s *session) layerMetrics(ms metricSet, o runOptions, steps int, allocMB float64) error {
	nsteps := float64(steps)
	tot := s.tr.totals()
	perCallMs := func(name string) float64 {
		if tot.calls[name] == 0 {
			return 0
		}
		return 1e3 * tot.total[name].Seconds() / float64(tot.calls[name])
	}

	var its, nlIts, nlUnconverged int
	stats := s.timedStats()
	if len(stats) == 0 {
		return fmt.Errorf("no timed step completed; there is nothing to attribute")
	}
	for _, st := range stats {
		its += st.KrylovIts
		nlIts += st.NewtonIts
		if !st.Converged {
			nlUnconverged++
		}
	}
	ms["scenario.compile_s"] = s.compile.Seconds()
	ms["model.step_self_s"] = tot.self[spanStep].Seconds()
	ms["model.alloc_mb_per_step"] = allocMB
	ms["stokes.solves_per_step"] = float64(s.solves) / nsteps
	ms["stokes.matvec_ms"] = perCallMs(spanMatvec)
	ms["stokes.matvec_calls"] = float64(tot.calls[spanMatvec])
	ms["stokes.pc_apply_ms"] = perCallMs(spanPC)
	ms["stokes.pc_apply_calls"] = float64(tot.calls[spanPC])
	ms["krylov.its"] = float64(its)
	ms["krylov.solve_s"] = tot.total[spanSolve].Seconds()
	ms["krylov.ms_per_it"] = 1e3 * tot.total[spanSolve].Seconds() / float64(its)
	ms["krylov.self_ms_per_it"] = 1e3 * tot.self[spanSolve].Seconds() / float64(its)
	ms["krylov.self_frac"] = tot.self[spanSolve].Seconds() / tot.total[spanSolve].Seconds()
	ms["krylov.unconverged_solves"] = float64(s.unconvergedSolves)
	ms["krylov.final_rel_res_max"] = s.relResMax
	ms["nonlinear.its"] = float64(nlIts)
	ms["nonlinear.unconverged_steps"] = float64(nlUnconverged)
	nspans := 0
	for _, n := range tot.calls {
		nspans += n
	}
	ms["trace.overhead_frac"] = float64(nspans) * spanCost().Seconds() / tot.total[spanStep].Seconds()

	if c := s.rec.comm; c.HaloMsgs > 0 {
		ms["comm.halo_msgs_per_it"] = float64(c.HaloMsgs) / float64(its)
		ms["comm.halo_mb_per_step"] = float64(c.HaloBytes) / (1 << 20) / nsteps
		ms["comm.allreduces_per_it"] = float64(c.AllReduces) / float64(its)
		ms["comm.retries"] = float64(c.Retries)
	}

	r := &replay{
		m: s.m, ms: ms, reps: o.reps,
		dt: stats[len(stats)-1].Dt, workers: s.workers,
	}
	r.mpm()
	if err := r.model(); err != nil {
		return err
	}
	if err := r.checkpoint(); err != nil {
		return err
	}
	if err := r.stokesSetup(); err != nil {
		return err
	}
	if err := r.stokesApply(); err != nil {
		return err
	}
	r.dispatch()
	if s.w.opKernels {
		h := measureHost(o.seed, false)
		h.print()
		if err := r.kernels(h); err != nil {
			return err
		}
	}
	reconcile(ms, steps, s.m.FreeSurface)
	return nil
}

// reconcile states how much of each enclosing time the replayed parts do
// not cover. Each fraction is computed from the metrics it names and
// nothing else, so a reader (and the test) can recompute it.
func reconcile(ms metricSet, steps int, freeSurface bool) {
	// One step with k relinearisations evaluates the residual at least
	// 1+k times and prepares k times: 1+2k coefficient updates, k solver
	// refreshes (the first after the ALE update moved the mesh), then
	// advection, relocation, population control and the energy equation.
	k := ms["stokes.solves_per_step"]
	covered := (1+2*k)*ms["model.update_coeff_ms"] + k*ms["stokes.setup_refresh_ms"] +
		ms["mpm.advect_ms"] + ms["mpm.popctl_ms"] + ms["thermal.step_ms"]
	if freeSurface {
		covered += ms["stokes.setup_refresh_geom_ms"] - ms["stokes.setup_refresh_ms"] + ms["mpm.locate_all_ms"]
	}
	ms["model.unattributed_frac"] = 1 - covered/(1e3*ms["model.step_self_s"]/float64(steps))

	if pc := ms["stokes.pc_apply_ms"]; pc > 0 {
		ms["stokes.pc_unattributed_frac"] = 1 - (ms["mg.vcycle_ms"]+ms["stokes.schur_ms"]+ms["stokes.coupling_d_ms"])/pc
	}
	if vc := ms["mg.vcycle_ms"]; vc > 0 {
		parts := ms["mg.coarse_solve_ms"]
		for _, l := range []string{".l0", ".l1"} {
			parts += ms["mg.smooth_ms"+l] + ms["mg.op_apply_ms"+l] + ms["mg.restrict_ms"+l] + ms["mg.prolong_ms"+l]
		}
		ms["mg.vcycle_unattributed_frac"] = 1 - parts/vc
	}
}
