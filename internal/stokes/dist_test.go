package stokes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// TestCoupledReducerFusedSweepBitwise: the rank's one-sweep Gram–Schmidt
// step (coupledReducer.AXPYDot) on vectors packed on the coupled spans
// leaves the vector and returns the reduced value of the packed update
// followed by coupledReducer.Dot, bit for bit, on every rank of 2×1×1,
// 1×2×2 and 2×2×2 worlds over a mesh with free-slip (Dirichlet-masked)
// faces. Both equal the full-length form — the update on the windows of
// full vectors and the partial summed node by node over OwnedSpans, then
// per element over Elems — so packing moves no bit. y is a vector of its
// own, v itself (the ‖w‖² of the last sweep) and x; x is zero on the
// masked rows in one case and not in the other.
func TestCoupledReducerFusedSweepBitwise(t *testing.T) {
	da := mesh.New(6, 4, 4, 0, 1.5, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	o := NewOp(fem.NewProblem(da, bc), nil, nil)
	n := o.N()
	for _, pg := range [][3]int{{2, 1, 1}, {1, 2, 2}, {2, 2, 2}} {
		d, err := comm.NewDecomp(da, pg[0], pg[1], pg[2])
		if err != nil {
			t.Fatal(err)
		}
		comm.NewWorld(d.Size()).Run(func(r *comm.Rank) {
			dist := comm.NewDist(r, comm.NewLayout(d, r.ID), nil)
			rd := &coupledReducer{dist: dist, nu: la.SpansLen(dist.L.VelSpans())}
			defer func() {
				if err := r.Err(); err != nil {
					t.Errorf("%v rank %d: %v", pg, r.ID, err)
				}
			}()
			spans := coupledSpans(o, dist.L)
			// fullDot is the partial of full-length vectors, summed in the
			// order the packed reducer must keep.
			fullDot := func(x, y la.Vec) float64 {
				xu, xp := o.Split(x)
				yu, yp := o.Split(y)
				s := 0.0
				for _, sp := range dist.L.OwnedSpans() {
					for d0 := sp.Lo; d0 < sp.Hi; d0 += 3 {
						s += xu[d0]*yu[d0] + xu[d0+1]*yu[d0+1] + xu[d0+2]*yu[d0+2]
					}
				}
				for _, e := range dist.L.Elems {
					s += xp.DotRange(yp, 4*e, 4*e+4)
				}
				return rd.reduce(s)
			}
			pack := func(v la.Vec) la.Vec {
				p := la.NewVec(la.SpansLen(spans))
				p.Pack(v, spans)
				return p
			}
			rng := rand.New(rand.NewSource(int64(100*d.Size() + r.ID)))
			random := func() la.Vec {
				v := la.NewVec(n)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return v
			}
			for c, alias := range []string{"y", "v", "x", "y"} {
				v0, x, y := random(), random(), random()
				if c == 0 {
					for i, m := range bc.Mask {
						if m {
							x[i] = 0
						}
					}
				}
				alpha := rng.NormFloat64()
				full := slices.Clone(v0)
				want, got, px, py := pack(v0), pack(v0), pack(x), pack(y)
				yf, yw, yg := y, py, py
				switch alias {
				case "v":
					yf, yw, yg = full, want, got
				case "x":
					yf, yw, yg = x, px, px
				}
				full.AXPYSpans(alpha, x, spans)
				want.AXPY(alpha, px)
				df := fullDot(full, yf)
				dw := rd.Dot(want, yw)
				dg := rd.AXPYDot(got, alpha, px, yg)
				name := fmt.Sprintf("%v rank %d case %d (y = %s)", pg, r.ID, c, alias)
				if math.Float64bits(dg) != math.Float64bits(dw) || math.Float64bits(dw) != math.Float64bits(df) {
					t.Errorf("%s: fused %v, two steps %v, full length %v", name, dg, dw, df)
				}
				for i, wf := range pack(full) {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(want[i]) != math.Float64bits(wf) {
						t.Errorf("%s: packed entry %d: fused %v, two steps %v, full length %v", name, i, got[i], want[i], wf)
						break
					}
				}
			}
		})
	}
}

// runDistComparison solves the 8³ sinker with the given outer method
// both shared-memory and rank-distributed over a 2×2×1 world, and
// checks the acceptance criteria of the rank-distributed solve: same
// outer iteration count, velocity agreement to 1e-10, and non-trivial
// per-rank communication statistics.
func runDistComparison(t *testing.T, method string, velTol float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	p, def := sinkerProblem(8, 100, 2)
	cfg := sinkerConfig(p, def)
	cfg.OuterMethod = method
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)

	xs := la.NewVec(s.Op.N())
	resS := s.Solve(xs, bu, nil)
	if !resS.Converged {
		t.Fatalf("shared solve failed: %d its", resS.Iterations)
	}

	xd := la.NewVec(s.Op.N())
	resD, stats, err := s.SolveDistributed(xd, bu, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !resD.Converged {
		t.Fatalf("distributed solve failed: %d its, err %v", resD.Iterations, resD.Err)
	}
	if resD.Iterations != resS.Iterations {
		t.Fatalf("iteration counts differ: distributed %d vs shared %d", resD.Iterations, resS.Iterations)
	}

	us, _ := s.Op.Split(xs)
	ud, _ := s.Op.Split(xd)
	diff := slices.Clone(ud)
	diff.AXPY(-1, us)
	if rel := diff.Norm2() / math.Max(us.Norm2(), 1e-300); rel > velTol {
		t.Fatalf("velocity fields deviate: rel %.3e", rel)
	}

	if len(stats) != 4 {
		t.Fatalf("want 4 rank stats, got %d", len(stats))
	}
	for _, st := range stats {
		if st.HaloMsgs == 0 || st.HaloBytes == 0 {
			t.Fatalf("rank %d reports no halo traffic: %+v", st.Rank, st)
		}
		if st.AllReduces == 0 {
			t.Fatalf("rank %d reports no allreduces: %+v", st.Rank, st)
		}
	}
}

// TestDistributedSolveMatchesSharedFGMRES is the PR's acceptance run:
// rank-distributed FGMRES on the sinker at 8³ with 2×2×1 ranks must
// converge in the same iteration count as the shared-memory solve and
// agree to 1e-10 in velocity.
func TestDistributedSolveMatchesSharedFGMRES(t *testing.T) {
	runDistComparison(t, "fgmres", 1e-10)
}

// TestDistributedSolveMatchesSharedGCR covers the paper's preferred
// outer method through the same criteria; GCR's explicit-residual
// recurrence amplifies the element-summation-order roundoff slightly
// more than the Arnoldi recurrence, hence the marginally looser bound.
func TestDistributedSolveMatchesSharedGCR(t *testing.T) {
	runDistComparison(t, "gcr", 1e-9)
}

// TestDistributedSolveClassicalAgg runs a full solve over 2×2×1 ranks,
// the coarsest level gathered to rank 0, and checks that it (a) takes the
// shared solve's iterations and reaches its velocity to
// TestRankCountInvariantClassical's GCR bound, and (b) spends on every
// rank the allreduces the fused modified Gram–Schmidt recurrence implies.
func TestDistributedSolveClassicalAgg(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, def := sinkerProblem(8, 100, 2)
	cfg := sinkerConfig(p, def)
	cfg.OuterMethod = "gcr"
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)

	xs := la.NewVec(s.Op.N())
	resS := s.Solve(xs, bu, nil)
	if !resS.Converged {
		t.Fatalf("shared solve failed: %d its", resS.Iterations)
	}

	xd := la.NewVec(s.Op.N())
	resD, stats, err := s.SolveDistributed(xd, bu, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !resD.Converged || resD.Iterations != resS.Iterations {
		t.Fatalf("distributed solve: converged=%v in %d its, shared took %d (err %v)",
			resD.Converged, resD.Iterations, resS.Iterations, resD.Err)
	}
	us, _ := s.Op.Split(xs)
	ud, _ := s.Op.Split(xd)
	diff := slices.Clone(ud)
	diff.AXPY(-1, us)
	if rel := diff.Norm2() / us.Norm2(); rel > 1e-9 {
		t.Fatalf("velocity deviates from shared: rel %.3e", rel)
	}

	// GCR reduces once for ‖r₀‖, then at basis length nd once per stored
	// direction plus (q,q₀), (r,q) and ‖r‖²: nd+3. The V-cycle adds none,
	// so every rank counts exactly that.
	want := int64(1)
	for it, nd := 1, 0; it <= resD.Iterations; it++ {
		want += int64(nd + 3)
		if nd == cfg.Params.Restart {
			nd = 0
		}
		nd++
	}
	for _, st := range stats {
		if st.AllReduces != want {
			t.Fatalf("rank %d: %d allreduces for %d iterations, want %d",
				st.Rank, st.AllReduces, resD.Iterations, want)
		}
	}
}

// TestRankCountInvariantClassical pins what the fold rests on: the
// classical solve is one iteration whatever the layout. The shared solve
// and rank worlds 1×1×1 to 2×2×2 take the same number of outer iterations
// on one 8³ sinker system, for both outer methods; the layouts differ only
// in element- and reduction-summation order, which FGMRES carries into the
// velocity at ≤ 4e-12 and GCR's explicit-residual recurrence at ≤ 5.2e-10
// (largest at 1×1×1; the bound TestDistributedSolveMatchesSharedGCR has).
func TestRankCountInvariantClassical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for method, velTol := range map[string]float64{"gcr": 1e-9, "fgmres": 1e-11} {
		t.Run(method, func(t *testing.T) {
			p, def := sinkerProblem(8, 100, 1)
			cfg := sinkerConfig(p, def)
			cfg.OuterMethod = method
			s, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bu := la.NewVec(p.DA.NVelDOF())
			fem.MomentumRHS(p, bu)
			xs := la.NewVec(s.Op.N())
			resS := s.Solve(xs, bu, nil)
			if !resS.Converged {
				t.Fatalf("shared solve failed: %d its", resS.Iterations)
			}
			us, _ := s.Op.Split(xs)
			for _, pg := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
				xd := la.NewVec(s.Op.N())
				resD, _, err := s.SolveDistributed(xd, bu, pg[0], pg[1], pg[2])
				if err != nil || !resD.Converged {
					t.Fatalf("%v: distributed solve failed: %d its, err %v", pg, resD.Iterations, err)
				}
				if resD.Iterations != resS.Iterations {
					t.Fatalf("%v: %d iterations, shared took %d", pg, resD.Iterations, resS.Iterations)
				}
				ud, _ := s.Op.Split(xd)
				diff := slices.Clone(ud)
				diff.AXPY(-1, us)
				if rel := diff.Norm2() / us.Norm2(); rel > velTol {
					t.Fatalf("%v: velocity deviates from shared: rel %.3e", pg, rel)
				}
			}
		})
	}
}

// TestDistributedSolveRejectsBadConfigs: algebraic-only configurations,
// non-nesting rank grids and unknown outer methods must fail fast with a
// clear error.
func TestDistributedSolveRejectsBadConfigs(t *testing.T) {
	p, def := sinkerProblem(4, 10, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 1
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)
	x := la.NewVec(s.Op.N())
	if _, _, err := s.SolveDistributed(x, bu, 2, 1, 1); err == nil {
		t.Fatal("Levels=1 must reject the distributed solve")
	}

	cfg2 := sinkerConfig(p, def)
	cfg2.Levels = 2
	s2, err := New(p, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// 4³ elements over 2 levels: the coarse grid has 2 elements per
	// axis, so 3 ranks along x cannot nest.
	if _, _, err := s2.SolveDistributed(x, bu, 3, 1, 1); err == nil {
		t.Fatal("non-nesting rank grid must be rejected")
	}

	// An unknown outer method is rejected when the solver is built, and —
	// should a caller name one per solve — by the distributed solve itself
	// rather than run as GCR.
	cfg3 := sinkerConfig(p, def)
	cfg3.OuterMethod = "bicgstab"
	if _, err := New(p, cfg3); err == nil || !strings.Contains(err.Error(), "bicgstab") {
		t.Fatalf("unknown outer method must be rejected by New, got %v", err)
	}
	delta := la.NewVec(s2.Op.N())
	if _, _, err := s2.LinearSolveDistributed("", s2.Op, x, delta, cfg2.Params, 2, 1, 1); err == nil {
		t.Fatal("LinearSolveDistributed must reject an unnamed method")
	}
}

// TestRankSolveFirstExchangeIsItsApply: a rank solve does no exchange
// of its own. With a zero right-hand side a 2×1×1 solve stops at
// iteration 0 after the one coupled apply of its initial residual, so
// each rank sends exactly that apply's two halo messages to its one
// neighbour (partial sums, then owner values) and reduces once, for
// ‖r₀‖, with either outer method.
func TestRankSolveFirstExchangeIsItsApply(t *testing.T) {
	p, def := sinkerProblem(4, 10, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rhs, delta := la.NewVec(s.Op.N()), la.NewVec(s.Op.N())
	for _, method := range []string{"gcr", "fgmres"} {
		res, stats, err := s.LinearSolveDistributed(method, s.Op, rhs, delta, cfg.Params, 2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations != 0 || res.Err != nil {
			t.Fatalf("%s: converged=%v in %d iterations (err %v), want convergence at iteration 0", method, res.Converged, res.Iterations, res.Err)
		}
		for _, st := range stats {
			if st.HaloMsgs != 2 || st.AllReduces != 1 {
				t.Errorf("%s: rank %d sent %d halo messages and ran %d allreduces, want 2 and 1", method, st.Rank, st.HaloMsgs, st.AllReduces)
			}
		}
	}
}

// TestReusedRankViewsMatchCold: what a solver keeps between distributed
// solves — each rank's comm handles with their halo, allreduce and coarse
// buffers, its V-cycle view refreshed in place, its Krylov workspace and
// vector copies — gives the iterations and bits of a solver built cold. One
// solver solves on one viscosity field and then, after the field changes
// and a Refresh, on another, alternating 2×1×1 with 2×2×1 so that views
// are rebuilt on a shape change and reused on the same shape, across the
// Refresh too; each solve must equal that of a solver built cold on the
// same field. -short keeps one reuse, the one across the Refresh on
// 2×2×1.
func TestReusedRankViewsMatchCold(t *testing.T) {
	type shape struct{ px, py int }
	a, b := shape{2, 1}, shape{2, 2}
	shapes := [][]shape{{a, a, b}, {b, a, a}}
	if testing.Short() {
		shapes = [][]shape{{a, b}, {b, a}}
	}
	p, _ := sinkerProblem(4, 100, 1)
	bu := la.NewVec(p.DA.NVelDOF())
	var warm *Solver
	for f, deta := range []float64{100, 1000} {
		def := miniSinker(4, 0.18, deta)
		p.SetCoefficientsVertex(fem.VertexFieldFromFunc(p.DA, def.eta), fem.VertexFieldFromFunc(p.DA, def.rho))
		fem.MomentumRHS(p, bu)
		cfg := sinkerConfig(p, def)
		cfg.Levels = 2
		if warm == nil {
			var err error
			if warm, err = New(p, cfg); err != nil {
				t.Fatal(err)
			}
		} else {
			warm.Cfg.CoeffCoarsen = cfg.CoeffCoarsen
			if err := warm.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range shapes[f] {
			solve := func(s *Solver) (la.Vec, krylov.Result) {
				x := la.NewVec(s.Op.N())
				res, _, err := s.SolveDistributed(x, bu, w.px, w.py, 1)
				if err != nil || !res.Converged {
					t.Fatalf("Δη %g, %dx%dx1: converged %v, err %v", deta, w.px, w.py, res.Converged, err)
				}
				return x, res
			}
			cold, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			xw, rw := solve(warm)
			xc, rc := solve(cold)
			if rw.Iterations != rc.Iterations || !slices.Equal(xw, xc) {
				t.Fatalf("Δη %g, %dx%dx1: kept views took %d iterations, cold %d; solutions equal: %v",
					deta, w.px, w.py, rw.Iterations, rc.Iterations, slices.Equal(xw, xc))
			}
		}
	}
}
