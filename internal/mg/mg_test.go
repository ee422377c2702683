package mg

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/op"
)

func buildPair(t *testing.T, m int) (fine, coarse *mesh.DA) {
	t.Helper()
	fine = mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	coarse = fine.Coarsen()
	return
}

func TestProlongationReproducesLinear(t *testing.T) {
	fine, coarse := buildPair(t, 4)
	p := NewProlongation(fine, coarse, nil, nil)
	uc := la.NewVec(coarse.NVelDOF())
	for n := 0; n < coarse.NNodes(); n++ {
		x, y, z := coarse.NodeCoords(n)
		uc[3*n] = 1 + 2*x - y
		uc[3*n+1] = 3*z + x
		uc[3*n+2] = -y + 0.5*z
	}
	uf := la.NewVec(fine.NVelDOF())
	p.Apply(uc, uf)
	for n := 0; n < fine.NNodes(); n++ {
		x, y, z := fine.NodeCoords(n)
		want := [3]float64{1 + 2*x - y, 3*z + x, -y + 0.5*z}
		for a := 0; a < 3; a++ {
			if math.Abs(uf[3*n+a]-want[a]) > 1e-13 {
				t.Fatalf("node %d comp %d: %v want %v", n, a, uf[3*n+a], want[a])
			}
		}
	}
}

func TestProlongationAdjoint(t *testing.T) {
	fine, coarse := buildPair(t, 4)
	fbc := mesh.NewBC(fine)
	fbc.FreeSlipBox(fine, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	cbc := mesh.CoarsenBC(fine, coarse, fbc)
	p := NewProlongation(fine, coarse, fbc, cbc)
	rng := rand.New(rand.NewSource(1))
	uc := la.NewVec(coarse.NVelDOF())
	rf := la.NewVec(fine.NVelDOF())
	for i := range uc {
		uc[i] = rng.NormFloat64()
	}
	for i := range rf {
		rf[i] = rng.NormFloat64()
	}
	puc := la.NewVec(fine.NVelDOF())
	p.Apply(uc, puc)
	ptr := la.NewVec(coarse.NVelDOF())
	p.ApplyTranspose(rf, ptr)
	d1 := puc.Dot(rf)
	d2 := uc.Dot(ptr)
	if math.Abs(d1-d2) > 1e-10*(1+math.Abs(d1)) {
		t.Fatalf("<Pu,r>=%v != <u,Pᵀr>=%v", d1, d2)
	}
}

// TestProlongationAdjointRandomized is the property-style version of the
// transpose check: over random mesh shapes, deformations and constraint
// patterns, restriction must remain the exact adjoint of prolongation
// (⟨P·x, y⟩ == ⟨x, Pᵀ·y⟩ for random x, y) — the structural property the
// Galerkin coarse operator's symmetry rests on.
func TestProlongationAdjointRandomized(t *testing.T) {
	faces := []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax}
	normal := []int{0, 0, 1, 1, 2, 2}
	for _, seed := range []int64{11, 22, 33, 44} {
		rng := rand.New(rand.NewSource(seed))
		mx, my, mz := 2*(1+rng.Intn(2)), 2*(1+rng.Intn(2)), 2*(1+rng.Intn(2))
		fine := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
		a1 := 0.05 * rng.Float64()
		a2 := 0.05 * rng.Float64()
		fine.Deform(func(x, y, z float64) (float64, float64, float64) {
			return x + a1*math.Sin(math.Pi*y), y + a2*math.Sin(math.Pi*z), z + 0.02*x*y
		})
		coarse := fine.Coarsen()
		fbc := mesh.NewBC(fine)
		for i, f := range faces {
			switch rng.Intn(3) {
			case 1:
				fbc.SetFaceComponent(fine, f, normal[i], 0)
			case 2:
				for c := 0; c < 3; c++ {
					fbc.SetFaceComponent(fine, f, c, 0)
				}
			}
		}
		cbc := mesh.CoarsenBC(fine, coarse, fbc)
		p := NewProlongation(fine, coarse, fbc, cbc)
		for trial := 0; trial < 3; trial++ {
			uc := la.NewVec(coarse.NVelDOF())
			rf := la.NewVec(fine.NVelDOF())
			for i := range uc {
				uc[i] = rng.NormFloat64()
			}
			for i := range rf {
				rf[i] = rng.NormFloat64()
			}
			puc := la.NewVec(fine.NVelDOF())
			p.Apply(uc, puc)
			ptr := la.NewVec(coarse.NVelDOF())
			p.ApplyTranspose(rf, ptr)
			d1 := puc.Dot(rf)
			d2 := uc.Dot(ptr)
			if math.Abs(d1-d2) > 1e-10*(1+math.Abs(d1)) {
				t.Fatalf("seed %d trial %d (%dx%dx%d): <Pu,r>=%v != <u,Pᵀr>=%v",
					seed, trial, mx, my, mz, d1, d2)
			}
		}
	}
}

func TestProlongationCSRMatchesApply(t *testing.T) {
	fine, coarse := buildPair(t, 2)
	fbc := mesh.NewBC(fine)
	fbc.FreeSlipBox(fine, mesh.XMin, mesh.YMax)
	cbc := mesh.CoarsenBC(fine, coarse, fbc)
	p := NewProlongation(fine, coarse, fbc, cbc)
	pm := p.ToCSR()
	rng := rand.New(rand.NewSource(2))
	uc := la.NewVec(coarse.NVelDOF())
	for i := range uc {
		uc[i] = rng.NormFloat64()
		if cbc.Mask[i] {
			uc[i] = 0
		}
	}
	y1 := la.NewVec(fine.NVelDOF())
	p.Apply(uc, y1)
	y2 := la.NewVec(fine.NVelDOF())
	pm.MulVec(uc, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-13 {
			t.Fatalf("CSR prolongation mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// stdProblem builds a free-slip box problem with the given viscosity.
func stdProblem(m int, eta func(x, y, z float64) float64) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
	p := fem.NewProblem(da, bc)
	p.SetCoefficientsFunc(eta, nil)
	return p
}

func mgSolveIterations(t *testing.T, m, levels int, eta func(x, y, z float64) float64, kinds []op.Kind) int {
	if levels != len(kinds) {
		t.Fatalf("mgSolveIterations: %d kinds for %d levels", len(kinds), levels)
	}
	return mgSolveIterationsOpt(t, m, eta, Options{Kinds: kinds, SmoothSteps: 2})
}

func mgSolveIterationsOpt(t *testing.T, m int, eta func(x, y, z float64) float64, opt Options) int {
	t.Helper()
	fine := stdProblem(m, eta)
	probs := CoarsenProblems(fine, len(opt.Kinds), FuncCoeffCoarsener(eta, nil))
	mgp, err := Build(probs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgp.UseBlockJacobiCoarse(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := fine.DA.NVelDOF()
	b := la.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
		if fine.BC.Mask[i] {
			b[i] = 0
		}
	}
	x := la.NewVec(n)
	fineOp := fem.NewTensor(fine)
	prm := krylov.DefaultParams()
	prm.RTol = 1e-8
	prm.MaxIt = 100
	res := krylov.FGMRES(fineOp, mgp, b, x, prm)
	if !res.Converged {
		t.Fatalf("MG-FGMRES did not converge in %d its (res %.3e)", res.Iterations, res.Residual/res.Residual0)
	}
	return res.Iterations
}

// TestMGConvergesConstantViscosity: the core multigrid sanity check.
func TestMGConvergesConstantViscosity(t *testing.T) {
	one := func(x, y, z float64) float64 { return 1 }
	its := mgSolveIterations(t, 8, 3, one, []op.Kind{op.Tensor, op.Assembled, op.Galerkin})
	if its > 30 {
		t.Fatalf("constant-viscosity MG took %d iterations", its)
	}
}

// TestMGHIndependence: iteration counts must grow only mildly with mesh
// refinement (the multigrid property).
func TestMGHIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	one := func(x, y, z float64) float64 { return 1 }
	kinds := []op.Kind{op.Tensor, op.Assembled, op.Galerkin}
	it8 := mgSolveIterations(t, 8, 3, one, kinds)
	it16 := mgSolveIterations(t, 16, 3, one, kinds)
	if it16 > it8+10 {
		t.Fatalf("iterations grew from %d (8³) to %d (16³)", it8, it16)
	}
}

// TestMGVariableViscosity: smooth contrast of 10⁴ must still converge.
func TestMGVariableViscosity(t *testing.T) {
	eta := func(x, y, z float64) float64 {
		return math.Pow(10, 4*math.Sin(math.Pi*x)*math.Sin(math.Pi*y)*math.Sin(math.Pi*z))
	}
	its := mgSolveIterations(t, 8, 3, eta, []op.Kind{op.Tensor, op.Assembled, op.Galerkin})
	if its > 60 {
		t.Fatalf("variable-viscosity MG took %d iterations", its)
	}
}

// TestMGKindsEquivalent: matrix-free fine level and assembled fine level
// must produce (nearly) identical preconditioners.
func TestMGKindsEquivalent(t *testing.T) {
	one := func(x, y, z float64) float64 { return 1 + x + y*z }
	itMF := mgSolveIterations(t, 8, 2, one, []op.Kind{op.Tensor, op.Assembled})
	itAsm := mgSolveIterations(t, 8, 2, one, []op.Kind{op.Assembled, op.Assembled})
	itRef := mgSolveIterations(t, 8, 2, one, []op.Kind{op.MFRef, op.Assembled})
	if abs(itMF-itAsm) > 2 || abs(itMF-itRef) > 2 {
		t.Fatalf("kind-dependent convergence: MF %d, Asm %d, Ref %d", itMF, itAsm, itRef)
	}
}

// TestGalerkinVsRediscretized (ablation): both coarse-operator definitions
// must yield a convergent cycle with similar counts on a smooth problem.
func TestGalerkinVsRediscretized(t *testing.T) {
	eta := func(x, y, z float64) float64 { return math.Exp(2 * math.Sin(3*x) * math.Cos(2*y)) }
	itGal := mgSolveIterations(t, 8, 3, eta, []op.Kind{op.Tensor, op.Assembled, op.Galerkin})
	itRed := mgSolveIterations(t, 8, 3, eta, []op.Kind{op.Tensor, op.Assembled, op.Assembled})
	if itGal > 60 || itRed > 60 {
		t.Fatalf("Galerkin %d, rediscretized %d iterations", itGal, itRed)
	}
}

// TestVCycleContracts: plain V-cycle iteration (Richardson) reduces the
// residual by a healthy factor per cycle.
func TestVCycleContracts(t *testing.T) {
	one := func(x, y, z float64) float64 { return 1 }
	fine := stdProblem(8, one)
	probs := CoarsenProblems(fine, 3, FuncCoeffCoarsener(one, nil))
	mgp, err := Build(probs, Options{
		Kinds:       []op.Kind{op.Tensor, op.Assembled, op.Galerkin},
		SmoothSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgp.UseBlockJacobiCoarse(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := fine.DA.NVelDOF()
	b := la.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
		if fine.BC.Mask[i] {
			b[i] = 0
		}
	}
	fineOp := fem.NewTensor(fine)
	x := la.NewVec(n)
	r := la.NewVec(n)
	e := la.NewVec(n)
	norm := func() float64 {
		fineOp.Apply(x, r)
		r.AYPX(-1, b)
		return r.Norm2()
	}
	// Stationary iteration x += MG(b − A·x): the cycle as it is applied.
	r0 := norm()
	mgp.Apply(r, e)
	x.AXPY(1, e)
	r1 := norm()
	mgp.Apply(r, e)
	x.AXPY(1, e)
	r2 := norm()
	if r1 > 0.4*r0 || r2 > 0.4*r1 {
		t.Fatalf("V-cycle contraction weak: %v -> %v -> %v", r0, r1, r2)
	}
}

// TestVertexCoeffCoarsener: vertex fields restrict by injection and land
// at the quadrature points of every level.
func TestVertexCoeffCoarsener(t *testing.T) {
	fine := stdProblem(4, nil)
	etaV := make([]float64, fine.DA.NVertices())
	for v := range etaV {
		i, j, k := fine.DA.VertexIJK(v)
		etaV[v] = 1 + float64(i+j+k)
	}
	fine.SetCoefficientsVertex(etaV, nil)
	probs := CoarsenProblems(fine, 2, VertexCoeffCoarsener(fine.DA, etaV, nil))
	coarse := probs[1]
	// Coarse vertex (1,1,1) should carry fine vertex (2,2,2)'s value 7;
	// the centre quadrature point of coarse element (0,0,0)... check the
	// coarse qp field is within the fine field's range instead.
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range coarse.Eta {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < 1 || max > 13 {
		t.Fatalf("coarse qp viscosity range [%v,%v] outside fine vertex range [1,13]", min, max)
	}
}

// TestVertexCoeffCoarsenerReusable: the coarsener closure must restart
// from the fine grid on every new descent. It used to carry the previous
// hierarchy's coarsest state across calls, so any second CoarsenProblems
// with the same closure restricted from a mismatched DA and produced
// garbage coefficients (NaN solves on solver re-use).
func TestVertexCoeffCoarsenerReusable(t *testing.T) {
	fine := stdProblem(8, nil)
	etaV := make([]float64, fine.DA.NVertices())
	for v := range etaV {
		i, j, k := fine.DA.VertexIJK(v)
		etaV[v] = 1 + float64(i)*0.3 + float64(j)*0.2 + float64(k)*0.1
	}
	fine.SetCoefficientsVertex(etaV, nil)
	coarsen := VertexCoeffCoarsener(fine.DA, etaV, nil)
	first := CoarsenProblems(fine, 3, coarsen)
	second := CoarsenProblems(fine, 3, coarsen)
	for l := 1; l < 3; l++ {
		a, b := first[l].Eta, second[l].Eta
		if len(a) != len(b) {
			t.Fatalf("level %d: qp count changed across reuse: %d vs %d", l, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("level %d qp %d: coarsener not reusable: %v vs %v", l, i, a[i], b[i])
			}
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// TestMGBlockedVCycleBitIdentical: the V-cycle of the default layout —
// resident, wavefront-blocked smoothing on both finer levels, level 1's
// assembled matrix only feeding the Galerkin product — must be
// bit-identical at workers 1/2/4/8 to the same hierarchy smoothing with
// the full-grid recurrence: cache blocking reorders work, never
// arithmetic.
func TestMGBlockedVCycleBitIdentical(t *testing.T) {
	eta := func(x, y, z float64) float64 { return 1 + 8*x*z + 3*y }
	build := func(workers, steps int) *MG {
		fine := stdProblem(8, eta)
		probs := CoarsenProblems(fine, 3, FuncCoeffCoarsener(eta, nil))
		mgp, err := Build(probs, Options{Kinds: layoutKinds(t, 3, op.TensorC), SmoothSteps: steps, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgp.UseBlockJacobiCoarse(1); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 2; l++ {
			if mgp.Levels[l].Blocked == nil {
				t.Fatalf("level %d (%v) has no blocked smoother", l, mgp.Levels[l].Op.Kind())
			}
		}
		return mgp
	}
	for steps := 1; steps <= 4; steps++ {
		// The test-local reference: the same hierarchy made to smooth
		// full-grid.
		plain := build(1, steps)
		for _, lev := range plain.Levels {
			lev.Blocked = nil
		}
		n := plain.Levels[0].Op.N()
		rng := rand.New(rand.NewSource(19))
		b := la.NewVec(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		zb, zp := la.NewVec(n), la.NewVec(n)
		plain.Apply(b, zp)
		// 3 and 5 workers: block groups that do not divide the 8 blocks.
		for _, w := range []int{1, 2, 3, 5, 8} {
			// Twice: the cycle is two pool jobs, and which of their items the
			// pool's workers get to differs from one run to the next.
			mgw := build(w, steps)
			for rep := 0; rep < 2; rep++ {
				mgw.Apply(b, zb)
				for i := 0; i < n; i++ {
					if zb[i] != zp[i] {
						t.Fatalf("V(%d,%d) workers %d: dof %d differs bitwise: %x vs %x (Δ=%.3e)",
							steps, steps, w, i, math.Float64bits(zb[i]), math.Float64bits(zp[i]), zb[i]-zp[i])
					}
				}
			}
		}
	}
}

// countingOp counts the applications of the operator it wraps.
type countingOp struct {
	op.Operator
	applies int
}

func (c *countingOp) Apply(x, y la.Vec) {
	c.applies++
	c.Operator.Apply(x, y)
}

// TestVCycleApplyCountOnCSRLevels: on a level without resident backing
// one V(2,2) cycle applies the operator 4 times — pre-smooth from a zero
// guess 1, residual 1, post-smooth 2 — since the smoother never computes
// its final residual. The telemetry counters count smoother and operator
// visits, not applies, so this is counted on the operator itself.
func TestVCycleApplyCountOnCSRLevels(t *testing.T) {
	eta := func(x, y, z float64) float64 { return 1 + 8*x*z + 3*y }
	probs := CoarsenProblems(stdProblem(8, eta), 3, FuncCoeffCoarsener(eta, nil))
	mgp, err := Build(probs, Options{Kinds: []op.Kind{op.Assembled, op.Assembled, op.Galerkin}, SmoothSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgp.UseBlockJacobiCoarse(1); err != nil {
		t.Fatal(err)
	}
	counts := make([]*countingOp, 2)
	for l := range counts {
		lev := mgp.Levels[l]
		if lev.Blocked != nil {
			t.Fatalf("level %d (%v) smooths blocked; this test is about the full-grid path", l, lev.Op.Kind())
		}
		counts[l] = &countingOp{Operator: lev.Op}
		lev.Op, lev.Smoother.A = counts[l], counts[l]
	}
	n := mgp.Levels[0].Op.N()
	b, z := la.NewVec(n), la.NewVec(n)
	b.Set(1)
	mgp.Apply(b, z)
	for l, c := range counts {
		if c.applies != 4 {
			t.Errorf("level %d: %d operator applications in one V(2,2) cycle, want 4", l, c.applies)
		}
	}
}

// layoutKinds is op.Layout's per-level kinds for a test hierarchy.
func layoutKinds(t *testing.T, levels int, fine op.Kind) []op.Kind {
	t.Helper()
	_, kinds, err := op.Layout(levels, fine)
	if err != nil {
		t.Fatal(err)
	}
	return kinds
}

// scatterRestrict is the serial scatter-add form of rc = Pᵀ·rf that the
// owner-computes gather of Prolongation.ApplyTranspose replaced, kept as
// its reference: fine nodes in ascending (k, j, i) order, each adding into
// its up to 8 coarse targets.
func scatterRestrict(p *Prolongation, rf, rc la.Vec) {
	f, c := p.Fine, p.Coarse
	var cmask, fmask []bool
	if p.CoarseBC != nil {
		cmask = p.CoarseBC.Mask
	}
	if p.FineBC != nil {
		fmask = p.FineBC.Mask
	}
	rc.Zero()
	for k := 0; k < f.NPz; k++ {
		k0, k1, wk0, wk1 := stencil1D(k)
		for j := 0; j < f.NPy; j++ {
			j0, j1, wj0, wj1 := stencil1D(j)
			for i := 0; i < f.NPx; i++ {
				i0, i1, wi0, wi1 := stencil1D(i)
				fd := 3 * f.NodeID(i, j, k)
				var v [3]float64
				masked := false
				for a := 0; a < 3; a++ {
					if fmask != nil && fmask[fd+a] {
						v[a] = 0
						masked = true
					} else {
						v[a] = rf[fd+a]
					}
				}
				if v[0] == 0 && v[1] == 0 && v[2] == 0 && !masked {
					continue
				}
				add := func(ci, cj, ck int, w float64) {
					if w == 0 {
						return
					}
					cd := 3 * c.NodeID(ci, cj, ck)
					for a := 0; a < 3; a++ {
						rc[cd+a] += w * v[a]
					}
				}
				for _, kk := range [2]struct {
					idx int
					w   float64
				}{{k0, wk0}, {k1, wk1}} {
					if kk.idx < 0 {
						continue
					}
					for _, jj := range [2]struct {
						idx int
						w   float64
					}{{j0, wj0}, {j1, wj1}} {
						if jj.idx < 0 {
							continue
						}
						if i0 >= 0 {
							add(i0, jj.idx, kk.idx, wi0*jj.w*kk.w)
						}
						if i1 >= 0 {
							add(i1, jj.idx, kk.idx, wi1*jj.w*kk.w)
						}
					}
				}
			}
		}
	}
	if cmask != nil {
		for d, m := range cmask {
			if m {
				rc[d] = 0
			}
		}
	}
}

// TestRestrictGatherBitIdentical: the parallel gather restriction equals
// the serial scatter bitwise — same contributors, same order — on an
// anisotropic deformed mesh, with and without boundary masks, including
// exact zeros in the residual (which the scatter skipped), at any worker
// count.
func TestRestrictGatherBitIdentical(t *testing.T) {
	fine := mesh.New(32, 8, 16, 0, 4, 0, 1, 0, 2)
	coarse := fine.Coarsen()
	fbc := mesh.NewBC(fine)
	fbc.FreeSlipBox(fine, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	cbc := mesh.CoarsenBC(fine, coarse, fbc)
	rng := rand.New(rand.NewSource(41))
	rf := la.NewVec(fine.NVelDOF())
	for i := range rf {
		if rng.Intn(5) > 0 {
			rf[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
	}
	for n := 0; n < fine.NNodes(); n += 7 {
		rf[3*n], rf[3*n+1], rf[3*n+2] = 0, 0, 0
	}
	for _, masked := range []bool{false, true} {
		p := NewProlongation(fine, coarse, nil, nil)
		if masked {
			p = NewProlongation(fine, coarse, fbc, cbc)
		}
		want := la.NewVec(coarse.NVelDOF())
		scatterRestrict(p, rf, want)
		for _, w := range []int{1, 2, 3, 8} {
			p.Workers = w
			got := la.NewVec(coarse.NVelDOF())
			got.Set(math.NaN()) // every entry must be written
			p.ApplyTranspose(rf, got)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("masked=%v workers=%d: coarse dof %d differs bitwise: %x vs %x",
						masked, w, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}
