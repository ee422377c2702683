package stokes

import (
	"fmt"
	"sync"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/telemetry"
)

// Rank-distributed coupled Stokes solve (paper §II-D): the whole outer
// Krylov iteration — coupled matvec, field-split preconditioner with a
// distributed multigrid V-cycle on the viscous block, and all inner
// products — runs collectively across the ranks of a simulated MPI
// world. Each rank iterates on its own vectors, stored packed on the
// owned+ghost windows of its fine layout (coupledSpans), O(n/P) per
// rank; a vector is unpacked to full length only to cross an operator or
// preconditioner apply, and the V-cycle's level vectors and smoother work
// vectors stay full length, valid on the windows of their level. Every
// halo exchange overlaps interior compute with in-flight boundary
// traffic; every reduction is a deterministic rank-ordered AllReduce, so
// all ranks follow the identical iteration trajectory.
//
// Velocity nodes follow the comm.Layout ownership boxes. P1disc
// pressure dofs are element-local (4 per element at indices [4e,4e+4)),
// so pressure needs no halo at all: a rank fully owns the pressure rows
// of its elements.

// RankStats reports one rank's communication volume for a distributed
// solve — the per-rank columns behind the Tables II/III scaling runs.
// HaloMsgs and HaloBytes count every packet the rank sends, the coarse
// gather's included. Retries is set by nothing: the fabric delivers every
// message once, so there is no retransmission to count. It stays for the
// benchmark's comm.retries row until that row is dropped (ROADMAP item
// 1(g)).
type RankStats struct {
	Rank       int   `json:"rank"`
	HaloMsgs   int64 `json:"halo_msgs"`
	HaloBytes  int64 `json:"halo_bytes"`
	AllReduces int64 `json:"allreduces"`
	Retries    int64 `json:"retries"`
}

// DistOptions holds nothing: a distributed solve has one configuration,
// the coarse solve gathered to rank 0. It stays for the benchmark
// harness, which passes DistOptions{} to model.NewDistributedBackend,
// until that call changes with the benchmark.
type DistOptions struct{}

// distOp is one rank's view of the coupled operator J = [[A,G],[D,0]] it
// is given — the solver's own Picard operator or the Newton
// linearization of the current relinearization. The viscous block and
// the gradient are applied matrix-free over the rank's elements with
// boundary elements first, so their nodal partial sums are in flight
// while interior elements are computed (§II-D latency hiding). One pass
// over each element's G_e gives its gradient contribution and its
// element-local divergence rows. A failed exchange is recorded on the
// rank (comm.Rank.Err).
type distOp struct {
	op    *Op
	auu   comm.ElementKernel
	dist  *comm.Dist
	spans []la.Span // coupled owned+ghost windows
}

// N returns the coupled dimension.
func (o *distOp) N() int { return o.op.N() }

// Apply computes y = J·x, valid on this rank's owned+ghost velocity
// rows and owned pressure rows.
func (o *distOp) Apply(x, y la.Vec) {
	l := o.dist.L
	xu, xp := o.op.Split(x)
	yu, yp := o.op.Split(y)
	y.ZeroSpans(o.spans)
	o.auu.ApplyElements(l.Boundary, xu, yu)
	o.op.C.ApplyGDElements(l.Boundary, xu, xp, yu, yp)
	_ = o.dist.ReduceBroadcast(yu,
		func() {
			o.auu.ApplyElements(l.Interior, xu, yu)
			o.op.C.ApplyGDElements(l.Interior, xu, xp, yu, yp)
		},
		func() { l.IdentityOwnedRows(o.op.P.BC.Mask, xu, yu) })
}

// coupledReducer sums each rank's partial inner product — owned
// velocity box plus the pressure rows of its elements — of vectors packed
// on the rank's coupledSpans with a single deterministic AllReduce, so
// every rank sees the bit-identical global value and the Krylov
// trajectory stays collective-consistent. A failed allreduce reads NaN,
// which the iteration breaks down on, and is recorded on the rank like
// its exchange failures.
type coupledReducer struct {
	dist  *comm.Dist
	spans []la.Span // the rank's coupledSpans
	nu    int       // packed velocity length: Elems[i]'s pressure sits at nu+4i
}

// Spans returns the windows the rank's Krylov vectors are packed on.
func (rd *coupledReducer) Spans() []la.Span { return rd.spans }

// Dot returns the globally reduced coupled inner product.
func (rd *coupledReducer) Dot(x, y la.Vec) float64 {
	return rd.reduce(rd.local(x, y))
}

// reduce returns the global sum of the rank's partial s.
func (rd *coupledReducer) reduce(s float64) float64 {
	v, _ := rd.dist.AllReduceSum(s)
	return v
}

// AXPYDot computes v += alpha*x on the rank's packed vectors and returns
// the reduced coupled inner product of the updated v with y
// (krylov.Reducer): one sweep forms the owned velocity partial in
// DotVel's node order and the pressure partials per element in Elems
// order, as local sums them, then one AllReduceSum — bitwise the update
// followed by Dot.
func (rd *coupledReducer) AXPYDot(v la.Vec, alpha float64, x, y la.Vec) float64 {
	nu := rd.nu
	s := rd.dist.L.AXPYDotVel(alpha, v[:nu], x[:nu], y[:nu])
	for p := nu; p < len(v); p += 4 {
		s += v[p:p+4].AXPYDot(alpha, x[p:p+4], y[p:p+4])
	}
	return rd.reduce(s)
}

// local computes this rank's partial of the coupled inner product.
func (rd *coupledReducer) local(x, y la.Vec) float64 {
	nu := rd.nu
	s := rd.dist.L.DotVel(x[:nu], y[:nu])
	for p := nu; p < len(x); p += 4 {
		s += x.DotRange(y, p, p+4)
	}
	return s
}

// coupledSpans returns the owned+ghost windows of a rank's coupled
// vector: the velocity rows of the extended node box followed by the
// pressure rows of the rank's elements (offset by Nu), with adjacent
// windows merged. The rank's Krylov vectors are stored packed on them —
// the velocity windows' entries, then 4 pressure entries per element in
// Elems order — so per-rank Krylov storage and BLAS-1 work are O(n/P).
func coupledSpans(op *Op, l *comm.Layout) []la.Span {
	spans := append([]la.Span(nil), l.VelSpans()...)
	for _, e := range l.Elems {
		spans = la.AppendSpan(spans, op.Nu+4*e, op.Nu+4*e+4)
	}
	return spans
}

// SolveDistributed performs one linear Stokes solve in Solve's
// residual-correction form (without its breakdown retry), but
// rank-distributed over a px×py×pz world. The correction system
// J·δ = −F(x) is solved collectively: each rank runs the configured
// outer method (GCR or FGMRES) on its own vector copy, and the owned
// pieces of the per-rank corrections are assembled into the global
// update. Returns rank 0's Result (all ranks follow the identical
// trajectory) plus the per-rank communication statistics.
//
// Requires a geometric multigrid configuration (Levels >= 2) whose
// per-level decompositions nest: px, py, pz must divide the per-level
// element counts at every level.
func (s *Solver) SolveDistributed(x, bu la.Vec, px, py, pz int) (krylov.Result, []RankStats, error) {
	var stats []RankStats
	res, err := s.correct(x, bu, func(f, delta la.Vec) (res krylov.Result, err error) {
		res, stats, err = s.LinearSolveDistributed(s.Cfg.OuterMethod, s.Op, f, delta, s.Cfg.Params, px, py, pz)
		return res, err
	})
	return res, stats, err
}

// distDecomps builds and validates the nested per-level decompositions
// of the solver's geometric hierarchy for a px×py×pz world, along with
// the [level][rank] layouts. Both are topological, so they are cached on
// the solver with the rank views built on them, and reused across solves
// of the same world shape (the per-step cost of a distributed solve then
// excludes partitioning and allocation).
func (s *Solver) distDecomps(px, py, pz int) (*distCache, error) {
	if s.MG == nil {
		return nil, fmt.Errorf("stokes: distributed solve requires a geometric multigrid configuration (Levels >= 2)")
	}
	size := px * py * pz
	if c := &s.dcache; c.decomps != nil && c.px == px && c.py == py && c.pz == pz {
		return c, nil
	}
	decomps := make([]*comm.Decomp, len(s.MG.Levels))
	for l, lev := range s.MG.Levels {
		d, err := comm.NewDecomp(lev.Prob.DA, px, py, pz)
		if err != nil {
			return nil, fmt.Errorf("stokes: level %d: %w", l, err)
		}
		decomps[l] = d
	}
	if err := mg.ValidateNestedDecomps(decomps); err != nil {
		return nil, err
	}
	layouts := make([][]*comm.Layout, len(decomps))
	for l, d := range decomps {
		layouts[l] = make([]*comm.Layout, size)
		for rid := 0; rid < size; rid++ {
			layouts[l][rid] = comm.NewLayout(d, rid)
		}
	}
	s.dcache = distCache{px: px, py: py, pz: pz, decomps: decomps, layouts: layouts, ranks: make([]*rankView, size)}
	return &s.dcache, nil
}

// rankView is one rank's persistent share of the distributed solve: its
// comm handles and V-cycle view of every level, its operator, field
// split and reducer, the coupled windows, the right-hand side and
// solution packed on them and the Krylov workspace. The first solve on a
// world shape builds it; later solves attach it to their world and
// re-read what a refresh changed (attach), so a steady solve allocates
// nothing.
type rankView struct {
	sc    *telemetry.Scope
	dists []*comm.Dist
	dmg   *mg.DistMG
	a     distOp
	m     FieldSplit
	rd    coupledReducer
	b, d  la.Vec // packed on rd.spans
	work  krylov.Workspace
}

// newRankView builds rank r's view of the solve on the cached layouts.
func (s *Solver) newRankView(r *comm.Rank, c *distCache, sc *telemetry.Scope) (*rankView, error) {
	v := &rankView{sc: sc, dists: make([]*comm.Dist, len(c.layouts))}
	for l := range c.layouts {
		v.dists[l] = comm.NewDist(r, c.layouts[l][r.ID], sc)
	}
	dmg, err := mg.NewDist(s.MG, v.dists)
	if err != nil {
		return nil, err
	}
	fine := v.dists[0]
	v.dmg = dmg
	spans := coupledSpans(s.Op, fine.L)
	v.a = distOp{dist: fine, spans: spans}
	v.m = FieldSplit{Op: s.Op, InnerU: dmg, Mp: s.Mp, elems: fine.L.Elems}
	v.rd = coupledReducer{dist: fine, spans: spans, nu: la.SpansLen(fine.L.VelSpans())}
	np := la.SpansLen(spans)
	v.b, v.d = la.NewVec(np), la.NewVec(np)
	return v, nil
}

// attach readies the view for a solve of jop (applied through the
// element kernel auu) in rank r's world: the handles move to the new
// world and the V-cycle view re-reads the refreshed hierarchy.
func (v *rankView) attach(r *comm.Rank, jop *Op, auu comm.ElementKernel) {
	for _, d := range v.dists {
		d.Attach(r)
	}
	v.dmg.Refresh()
	v.a.op, v.a.auu = jop, auu
}

// rankCommCounters reads the communication counts of one rank's
// telemetry scope into a RankStats record: its halo counters and its
// allreduce timer's calls.
func rankCommCounters(sc *telemetry.Scope, rank int) RankStats {
	return RankStats{
		Rank:       rank,
		HaloMsgs:   sc.Counter("halo_msgs").Value(),
		HaloBytes:  sc.Counter("halo_bytes").Value(),
		AllReduces: sc.Timer("allreduce").Calls(),
	}
}

// sub returns the counter deltas a−b (Rank preserved from a).
func (a RankStats) sub(b RankStats) RankStats {
	return RankStats{
		Rank:       a.Rank,
		HaloMsgs:   a.HaloMsgs - b.HaloMsgs,
		HaloBytes:  a.HaloBytes - b.HaloBytes,
		AllReduces: a.AllReduces - b.AllReduces,
	}
}

// Add accumulates the communication volume of o into s (Rank kept).
func (s *RankStats) Add(o RankStats) {
	s.HaloMsgs += o.HaloMsgs
	s.HaloBytes += o.HaloBytes
	s.AllReduces += o.AllReduces
}

// LinearSolveDistributed solves the coupled linear system J·δ = rhs
// collectively over a px×py×pz world, writing the assembled correction
// into delta (overwritten). J is the operator the caller hands over —
// s.Op, or a Newton linearization on the same problem and coupling — and
// the preconditioner is always the solver's Picard stack, as on the
// shared path. The caller supplies the outer method and the
// Krylov parameters — this is the backend entry point the nonlinear time
// loop uses, where RTol carries the per-iteration Eisenstat–Walker
// forcing term. Each rank runs the method on vectors packed on its
// windows; the owned pieces of the per-rank solutions are assembled into
// delta, and rank 0's Result is returned (all ranks follow the identical
// trajectory); rank 0 also times its operator and preconditioner
// applications into the "outer" matmult and pcapply timers, as the
// shared entry (LinearSolve) does. RankStats are per-call deltas, so
// repeated solves against the same telemetry registry report each
// solve's own volume.
//
// Requires a geometric multigrid configuration (Levels >= 2) whose
// per-level decompositions nest: px, py, pz must divide the per-level
// element counts at every level.
func (s *Solver) LinearSolveDistributed(method string, jop *Op, rhs, delta la.Vec, prmIn krylov.Params, px, py, pz int) (krylov.Result, []RankStats, error) {
	c, err := s.distDecomps(px, py, pz)
	if err != nil {
		return krylov.Result{}, nil, err
	}
	f := rhs
	delta.Zero()

	tel := s.Tel.Child("dist")
	size := px * py * pz
	// Snapshot the communication counters up front: the rank scopes are
	// reused across rebuilt solvers sharing one telemetry registry (the
	// time loop rebuilds the preconditioner every nonlinear iteration),
	// so per-solve stats must be computed as before/after deltas.
	before := make([]RankStats, size)
	for rid, v := range c.ranks {
		if v != nil {
			before[rid] = rankCommCounters(v.sc, rid)
		} else {
			before[rid] = rankCommCounters(tel.Child(fmt.Sprintf("rank%d", rid)), rid)
		}
	}
	// One kernel serves every rank: element applies keep their scratch on
	// the stack or in a pool.
	auu := op.ElementKernel(jop.Auu, s.Prob)
	matmult, pcapply := s.applyTimers()
	w := comm.NewWorld(size)
	var (
		mu      sync.Mutex
		res     krylov.Result
		stats   = make([]RankStats, size)
		rankErr = make([]error, size)
	)
	w.Run(func(r *comm.Rank) {
		v := c.ranks[r.ID]
		if v == nil {
			var err error
			v, err = s.newRankView(r, c, tel.Child(fmt.Sprintf("rank%d", r.ID)))
			if err != nil {
				rankErr[r.ID] = err
				// Stay collective even on failure: every other rank will
				// fail the same way, so returning here is safe.
				return
			}
			c.ranks[r.ID] = v
		}
		v.attach(r, jop, auu)
		prm := prmIn
		prm.Reducer = &v.rd
		prm.Work = &v.work
		// The ranks iterate in lockstep: rank 0's solve is the solve, and
		// it alone records, under the scope the shared entry records in,
		// with its applies timed as the shared entry times them.
		var tm, tp *telemetry.Timer
		if r.ID == 0 {
			tm, tp = matmult, pcapply
			if prm.Telemetry == nil {
				prm.Telemetry = s.Cfg.Params.Telemetry
			}
		} else {
			prm.Telemetry = nil
		}

		// The global residual packed on the rank's windows: only its
		// owned+ghost entries are ever read by this rank's iteration. The
		// packed vectors are halo-consistent as they stand, so the solve's
		// first exchange is its first operator apply.
		b, d := v.b, v.d
		b.Pack(f, v.rd.spans)
		d.Zero()
		rr := krylov.Solve(method, timedOp{&v.a, tm}, timedPC{&v.m, tp}, b, d, prm)

		// Assemble this rank's owned slice of the correction from the
		// packed solution.
		l := v.dists[0].L
		du, dp := d[:v.rd.nu], d[v.rd.nu:]
		gu, gp := s.Op.Split(delta)
		mu.Lock()
		for i, sp := range l.OwnedSpans() {
			ps := l.PackedOwnedSpans()[i]
			copy(gu[sp.Lo:sp.Hi], du[ps.Lo:ps.Hi])
		}
		for i, e := range l.Elems {
			copy(gp[4*e:4*e+4], dp[4*i:4*i+4])
		}
		if r.ID == 0 {
			res = rr
		}
		stats[r.ID] = rankCommCounters(v.sc, r.ID).sub(before[r.ID])
		// The rank's first communication failure is the cause of any
		// breakdown it led to.
		rankErr[r.ID] = r.Err()
		if rankErr[r.ID] == nil {
			rankErr[r.ID] = rr.Err
		}
		mu.Unlock()
	})
	for rid, err := range rankErr {
		if err != nil {
			return res, stats, fmt.Errorf("stokes: distributed solve, rank %d: %w", rid, err)
		}
	}
	return res, stats, nil
}
