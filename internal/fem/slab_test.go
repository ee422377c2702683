package fem

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/la"
)

// randomizeEta replaces the analytic viscosity field with independent
// log-uniform per-quadrature-point values spanning four decades — a
// heterogeneity far rougher than any projected coefficient field, so the
// slab/colored comparison is not helped by smoothness.
func randomizeEta(p *Problem, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range p.Eta {
		p.Eta[i] = math.Pow(10, -2+4*rng.Float64())
	}
}

// forEachElementColored runs body(e) over all elements serially, colour
// by colour (the colour of element (ei, ej, ek) is
// (ek%2)<<2 | (ej%2)<<1 | ei%2): the 8-colour schedule, whose elements of
// one colour share no node, that the slab partition and the plane window
// replaced.
func (p *Problem) forEachElementColored(body func(e int)) {
	da := p.DA
	for c := 0; c < 8; c++ {
		for e := 0; e < da.NElements(); e++ {
			if ei, ej, ek := da.ElemIJK(e); (ek%2)<<2|(ej%2)<<1|ei%2 == c {
				body(e)
			}
		}
	}
}

// applyIdentityRows finishes an operator application: constrained rows of
// y return u (identity block).
func applyIdentityRows(p *Problem, u, y la.Vec) {
	for d, m := range p.BC.Mask {
		if m {
			y[d] = u[d]
		}
	}
}

// applyColored computes y = J_uu·u with the tensor kernel on the 8-color
// element schedule the slab partition replaced on every apply path: the
// scatter-equivalence reference. Slab and colored applies sum element
// contributions in different orders, so they agree only to rounding
// (~1e-15 relative), while the slab path alone is bit-stable across
// worker counts.
func applyColored(p *Problem, u, y la.Vec) {
	y.Zero()
	p.forEachElementColored(func(e int) {
		var ue, xe, ye [81]float64
		var ks kernScratch
		p.gatherVec(e, u, &ue)
		p.gatherCoords(e, &xe)
		tensorElementApply(&ue, &xe, p.Eta[NQP*e:NQP*e+NQP], &ye, &ks)
		p.scatterAdd(e, &ye, y)
	})
	applyIdentityRows(p, u, y)
}

// TestSlabScatterEquivalence: the slab-partitioned owner-computes apply
// must match the legacy 8-color reference apply to roundoff on randomized
// heterogeneous viscosity fields, at every worker count. Both paths sum
// the same 27 per-element contributions per node, only in different
// orders, so the tolerance is a tight 1e-13 of the output magnitude.
func TestSlabScatterEquivalence(t *testing.T) {
	grids := [][3]int{{3, 2, 2}, {4, 4, 4}, {6, 3, 5}}
	for _, g := range grids {
		p := testProblem(t, g[0], g[1], g[2], 1)
		randomizeEta(p, int64(7*g[0]+g[1]))
		rng := rand.New(rand.NewSource(42))
		u := randVelocity(rng, p.DA.NVelDOF())
		n := p.DA.NVelDOF()

		tens := NewTensor(p)
		ref := la.NewVec(n)
		applyColored(p, u, ref)
		scale := ref.NormInf()

		for _, w := range []int{1, 2, 4, 8} {
			p.Workers = w
			y := la.NewVec(n)
			tens.Apply(u, y)
			for i := 0; i < n; i++ {
				if math.Abs(y[i]-ref[i]) > 1e-13*scale {
					t.Fatalf("grid %v workers %d: slab vs colored mismatch at %d: %v vs %v (|Δ|=%.3e, scale %.3e)",
						g, w, i, y[i], ref[i], math.Abs(y[i]-ref[i]), scale)
				}
			}
		}
	}
}

// TestSlabDeterminism: the slab apply must be bit-identical across worker
// counts — the slab count, in-slab element order and ascending-slab merge
// order are all independent of how many workers execute the chunks. This
// is what makes checkpoint/restart reproducible regardless of -workers.
func TestSlabDeterminism(t *testing.T) {
	p := testProblem(t, 5, 4, 3, 1)
	randomizeEta(p, 99)
	rng := rand.New(rand.NewSource(3))
	u := randVelocity(rng, p.DA.NVelDOF())
	n := p.DA.NVelDOF()

	tens := NewTensor(p)
	mf := NewMF(p)
	ref := la.NewVec(n)
	refMF := la.NewVec(n)
	refD := la.NewVec(n)
	refB := la.NewVec(n)
	tens.Apply(u, ref)
	mf.Apply(u, refMF)
	Diagonal(p, refD)
	MomentumRHS(p, refB)

	for _, w := range []int{2, 4, 8} {
		p.Workers = w
		y := la.NewVec(n)
		tens.Apply(u, y)
		for i := 0; i < n; i++ {
			if y[i] != ref[i] {
				t.Fatalf("Tensor workers=%d: dof %d differs bitwise: %x vs %x",
					w, i, math.Float64bits(y[i]), math.Float64bits(ref[i]))
			}
		}
		mf.Apply(u, y)
		for i := 0; i < n; i++ {
			if y[i] != refMF[i] {
				t.Fatalf("MF workers=%d: dof %d differs bitwise", w, i)
			}
		}
		Diagonal(p, y)
		for i := 0; i < n; i++ {
			if y[i] != refD[i] {
				t.Fatalf("Diagonal workers=%d: dof %d differs bitwise", w, i)
			}
		}
		MomentumRHS(p, y)
		for i := 0; i < n; i++ {
			if y[i] != refB[i] {
				t.Fatalf("MomentumRHS workers=%d: dof %d differs bitwise", w, i)
			}
		}
	}
}

// TestSlabStats sanity-checks the partition geometry: the slab count is
// bounded by the element count, every shared node really is on a slab
// boundary (shared < total), and the per-slab buffer windows cover every
// shared node each slab touches.
func TestSlabStats(t *testing.T) {
	p := testProblem(t, 6, 4, 4, 2)
	slabs, shared, total := p.SlabStats()
	nel := p.DA.NElements()
	if slabs < 1 || slabs > nel {
		t.Fatalf("slab count %d out of range [1,%d]", slabs, nel)
	}
	if total != p.DA.NNodes() {
		t.Fatalf("total nodes %d, want %d", total, p.DA.NNodes())
	}
	if slabs > 1 && (shared == 0 || shared >= total) {
		t.Fatalf("shared nodes %d implausible for %d slabs over %d nodes", shared, slabs, total)
	}

	// Recompute per-node slab spans independently and cross-check the
	// shared/interior classification and the per-slab buffer windows.
	info := p.slabs()
	minS := make([]int32, total)
	maxS := make([]int32, total)
	for i := range minS {
		minS[i] = -1
	}
	var nodes [27]int32
	for s := 0; s < info.S; s++ {
		for e := info.off[s]; e < info.off[s+1]; e++ {
			p.DA.ElemNodes(e, &nodes)
			for _, nn := range nodes {
				if minS[nn] < 0 {
					minS[nn] = int32(s)
				}
				maxS[nn] = int32(s)
			}
		}
	}
	for nn := 0; nn < total; nn++ {
		si := info.sharedIdx[nn]
		if (minS[nn] >= 0 && minS[nn] != maxS[nn]) != (si >= 0) {
			t.Fatalf("node %d: span %d..%d but sharedIdx %d", nn, minS[nn], maxS[nn], si)
		}
		if si >= 0 && (info.minSlab[si] != minS[nn] || info.maxSlab[si] != maxS[nn]) {
			t.Fatalf("node %d: recorded span %d..%d, recomputed %d..%d",
				nn, info.minSlab[si], info.maxSlab[si], minS[nn], maxS[nn])
		}
	}
	for s := 0; s < info.S; s++ {
		for e := info.off[s]; e < info.off[s+1]; e++ {
			p.DA.ElemNodes(e, &nodes)
			for _, nn := range nodes {
				si := info.sharedIdx[nn]
				if si >= 0 && (si < info.bufLo[s] || si >= info.bufHi[s]) {
					t.Fatalf("slab %d touches shared node %d (idx %d) outside its buffer window [%d,%d)",
						s, nn, si, info.bufLo[s], info.bufHi[s])
				}
			}
		}
	}
}

// TestApplyElementsAllocatesNothing: an element-subset apply, the
// rank-local piece of every halo apply, takes its arena from the
// Problem's pool, so after a warm-up call it allocates nothing.
func TestApplyElementsAllocatesNothing(t *testing.T) {
	p := testProblem(t, 4, 4, 3, 1)
	nel, n := p.DA.NElements(), p.DA.NVelDOF()
	rng := rand.New(rand.NewSource(5))
	u, y := randVelocity(rng, n), la.NewVec(n)
	half := make([]int, nel/2)
	for i := range half {
		half[i] = i
	}
	d6, fac := make([]float64, 6*NQP*nel), make([]float64, NQP*nel)
	for i := range d6 {
		d6[i] = rng.NormFloat64()
	}
	for i := range fac {
		fac[i] = -rng.Float64()
	}
	tens := NewTensor(p)
	for _, tc := range []struct {
		name string
		op   interface {
			ApplyElements(elems []int, u, y la.Vec)
		}
	}{
		{"TensorOp", tens},
		{"NewtonOp", NewNewton(tens, d6, fac)},
		{"Resident", NewResident(p, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.op.ApplyElements(half, u, y)
			if got := testing.AllocsPerRun(20, func() { tc.op.ApplyElements(half, u, y) }); got != 0 {
				t.Errorf("ApplyElements on %d of %d elements: %v allocations per call, want 0", len(half), nel, got)
			}
		})
	}
}
