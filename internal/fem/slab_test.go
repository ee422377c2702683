package fem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
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

// The per-node forms that the run table replaced: the oracles of the run
// gathers and scatters (TestRunTableMatchesPerNode).

// gatherVec fills ue with the element-local values of the velocity vector
// u, zeroing constrained dofs (symmetric Dirichlet elimination), node by
// node through Emap.
func (p *Problem) gatherVec(e int, u la.Vec, ue *[81]float64) {
	em := p.Emap[27*e : 27*e+27]
	mask := p.BC.Mask
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		for c := 0; c < 3; c++ {
			if mask[d+c] {
				ue[3*n+c] = 0
			} else {
				ue[3*n+c] = u[d+c]
			}
		}
	}
}

// gatherRaw fills ue with the element-local values of v as they are.
func (p *Problem) gatherRaw(e int, v []float64, ue *[81]float64) {
	em := p.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		ue[3*n] = v[d]
		ue[3*n+1] = v[d+1]
		ue[3*n+2] = v[d+2]
	}
}

// scatterAdd accumulates element-local values ye into the global vector y,
// skipping constrained rows.
func (p *Problem) scatterAdd(e int, ye *[81]float64, y la.Vec) {
	em := p.Emap[27*e : 27*e+27]
	mask := p.BC.Mask
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		for c := 0; c < 3; c++ {
			if !mask[d+c] {
				y[d+c] += ye[3*n+c]
			}
		}
	}
}

// gatherElemPerNode is gatherElem node by node.
func (p *Problem) gatherElemPerNode(e int, pass *elemPass, u la.Vec, ue, xe *[81]float64) {
	switch pass.state {
	case maskedState:
		p.gatherVec(e, u, ue)
	case rawState:
		p.gatherRaw(e, u, ue)
	}
	if pass.coords {
		p.gatherRaw(e, p.DA.Coords, xe)
	}
}

// applyBlockPerNode is applyBlock with the per-node scatter loop the run
// table replaced: each node's contribution to its overlap-buffer slot
// when it is shared, else to its free rows of y.
func (p *Problem) applyBlockPerNode(b int, pass *elemPass, add bool, u, y la.Vec, buf []float64) {
	info := p.slab
	clear(buf)
	if !add {
		for _, sp := range info.ownInterior[b] {
			clear(y[sp.Lo:sp.Hi])
		}
	}
	sc := new(arena)
	mask := p.BC.Mask
	bufOff := 3 * int(info.bufLo[b])
	for e := info.off[b]; e < info.off[b+1]; e++ {
		p.gatherElemPerNode(e, pass, u, &sc.ue[0], &sc.xe[0])
		pass.kern(e, &sc.ue[0], &sc.xe[0], &sc.ye[0], sc)
		em := p.Emap[27*e : 27*e+27]
		ye := &sc.ye[0]
		for n := 0; n < 27; n++ {
			node := int(em[n])
			if t := int(info.sharedIdx[node]); t >= 0 {
				o := 3*t - bufOff
				buf[o] += ye[3*n]
				buf[o+1] += ye[3*n+1]
				buf[o+2] += ye[3*n+2]
				continue
			}
			for c := 0; c < 3; c++ {
				if d := 3*node + c; !mask[d] {
					y[d] += ye[3*n+c]
				}
			}
		}
	}
}

// applyElementsPerNode is applyElements with the per-node gathers and
// scatter.
func (p *Problem) applyElementsPerNode(elems []int, pass *elemPass, u, y la.Vec) {
	sc := new(arena)
	for _, e := range elems {
		p.gatherElemPerNode(e, pass, u, &sc.ue[0], &sc.xe[0])
		pass.kern(e, &sc.ue[0], &sc.xe[0], &sc.ye[0], sc)
		p.scatterAdd(e, &sc.ye[0], y)
	}
}

// gradElemPerNode sets ye to element e's G_e·p, the gradient kernel as
// it was before it also formed the divergence rows.
func (c *Coupling) gradElemPerNode(e int, pv la.Vec, ye *[81]float64) {
	ge := c.Ge[324*e : 324*e+324]
	p0, p1, p2, p3 := pv[4*e], pv[4*e+1], pv[4*e+2], pv[4*e+3]
	for i := 0; i < 81; i++ {
		row := ge[4*i : 4*i+4]
		ye[i] = row[0]*p0 + row[1]*p1 + row[2]*p2 + row[3]*p3
	}
}

// divElemPerNode is the divergence row sum the run table replaced: node
// by node, skipping constrained (when masked) and zero entries.
func (c *Coupling) divElemPerNode(e int, u la.Vec, masked bool) (s [4]float64) {
	p := c.P
	mask := p.BC.Mask
	ge := c.Ge[324*e : 324*e+324]
	em := p.Emap[27*e : 27*e+27]
	for n := 0; n < 27; n++ {
		d := 3 * int(em[n])
		for a := 0; a < 3; a++ {
			if masked && mask[d+a] {
				continue
			}
			ua := u[d+a]
			if ua == 0 {
				continue
			}
			row := ge[(3*n+a)*4 : (3*n+a)*4+4]
			s[0] += row[0] * ua
			s[1] += row[1] * ua
			s[2] += row[2] * ua
			s[3] += row[3] * ua
		}
	}
	return s
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
// rank-local piece of every halo apply and of the fused gradient and
// divergence pass, takes its arena from the Problem's pool, so after a
// warm-up call it allocates nothing.
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
		{"Coupling.ApplyGDElements", gdElements{p.Coupling(), randVelocity(rng, 4*nel), la.NewVec(4 * nel)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.op.ApplyElements(half, u, y)
			if got := testing.AllocsPerRun(20, func() { tc.op.ApplyElements(half, u, y) }); got != 0 {
				t.Errorf("ApplyElements on %d of %d elements: %v allocations per call, want 0", len(half), nel, got)
			}
		})
	}
}

// runsProblem builds a deformed mx×my×mz problem whose six faces are all
// free-slip or all no-slip, on a slab partition of the given count
// (contiguous element ranges s·nel/slabs, cutting node lines wherever a
// range ends inside an element row), with a rough viscosity field.
func runsProblem(t testing.TB, mx, my, mz int, noSlip bool, slabs int) *Problem {
	t.Helper()
	da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*math.Sin(math.Pi*y), y + 0.04*math.Sin(math.Pi*z), z + 0.03*x*y
	})
	bc := mesh.NewBC(da)
	faces := []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax}
	if noSlip {
		for _, f := range faces {
			for c := 0; c < 3; c++ {
				bc.SetFaceComponent(da, f, c, 0)
			}
		}
	} else {
		bc.FreeSlipBox(da, faces...)
	}
	p := NewProblem(da, bc)
	nel := da.NElements()
	off := make([]int, slabs+1)
	for s := range off {
		off[s] = s * nel / slabs
	}
	p.slabOnce.Do(func() { p.slab = newSlabInfo(p, off) })
	randomizeEta(p, int64(mx+slabs))
	return p
}

// edgeVelocity returns a random velocity whose entries include exact +0
// and −0 on free dofs and, when masked, −0 and NaN on constrained ones
// (which a masked gather must replace by +0); unmasked, the constrained
// entries are finite boundary values or ±0.
func edgeVelocity(rng *rand.Rand, p *Problem, masked bool) la.Vec {
	u := randVelocity(rng, p.DA.NVelDOF())
	negZero := math.Copysign(0, -1)
	for d, m := range p.BC.Mask {
		switch {
		case m && masked && d%2 == 0:
			u[d] = math.NaN()
		case m && masked, d%7 == 3:
			u[d] = negZero
		case d%11 == 5:
			u[d] = 0
		}
	}
	return u
}

// firstBitDiff returns the first index at which a and b differ bitwise,
// or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestRunTableMatchesPerNode holds every element loop that moves node
// runs bitwise to the per-node form it replaced: the masked, raw and
// coordinate gathers, the subset scatter, each block of the block
// schedule (free-slip and no-slip masks on every face; slab partitions
// that cut node lines, so mixed runs are exercised), the subset apply and
// the divergence rows, masked and raw. The state holds −0 and NaN at
// constrained dofs and exact zeros at free ones.
func TestRunTableMatchesPerNode(t *testing.T) {
	for _, tc := range []struct {
		noSlip bool
		slabs  int
	}{{false, 1}, {false, 7}, {true, 7}, {true, 13}, {false, 60}} {
		t.Run(fmt.Sprintf("noslip=%v/slabs=%d", tc.noSlip, tc.slabs), func(t *testing.T) {
			p := runsProblem(t, 5, 4, 3, tc.noSlip, tc.slabs)
			info := p.slabs()
			var kinds [3]int
			for _, er := range info.runs {
				for _, k := range er.kind {
					kinds[k]++
				}
			}
			if tc.slabs > 1 && (kinds[runBuf] == 0 || kinds[runMixed] == 0) {
				t.Fatalf("run kinds out/buf/mixed = %v: the partition exercises no buffer or no mixed run", kinds)
			}
			rng := rand.New(rand.NewSource(int64(tc.slabs)))
			nel, n := p.DA.NElements(), p.DA.NVelDOF()
			um, ur := edgeVelocity(rng, p, true), edgeVelocity(rng, p, false)
			c := p.Coupling()
			pv := randVelocity(rng, p.DA.NPresDOF())
			tens := func(e int, ue, xe, ye *[81]float64, sc *arena) {
				tensorElementApply(ue, xe, p.Eta[NQP*e:NQP*e+NQP], ye, &sc.ks)
			}
			grad := func(e int, _, _, ye *[81]float64, _ *arena) { c.gradElemPerNode(e, pv, ye) }
			passes := map[string]struct {
				pass elemPass
				u    la.Vec
			}{
				"masked":   {elemPass{kern: tens, state: maskedState, coords: true}, um},
				"raw":      {elemPass{kern: tens, state: rawState, coords: true}, ur},
				"no state": {elemPass{kern: grad}, nil},
			}

			for name, ps := range passes {
				for e := 0; e < nel; e++ {
					var ue1, xe1, ue2, xe2 [81]float64
					p.gatherElem(e, &ps.pass, ps.u, &ue1, &xe1)
					p.gatherElemPerNode(e, &ps.pass, ps.u, &ue2, &xe2)
					if i := firstBitDiff(ue1[:], ue2[:]); ps.pass.state != noState && i >= 0 {
						t.Fatalf("%s gather, element %d: entry %d is %x, per node %x", name, e, i, math.Float64bits(ue1[i]), math.Float64bits(ue2[i]))
					}
					if i := firstBitDiff(xe1[:], xe2[:]); ps.pass.coords && i >= 0 {
						t.Fatalf("coordinate gather, element %d: entry %d differs", e, i)
					}
				}
				for b := 0; b < info.S; b++ {
					for _, add := range []bool{false, true} {
						y0 := randVelocity(rng, n)
						y1, y2 := slices.Clone(y0), slices.Clone(y0)
						nb := 3 * int(info.bufHi[b]-info.bufLo[b])
						buf1, buf2 := make([]float64, nb), make([]float64, nb)
						for i := range buf1 {
							buf1[i], buf2[i] = rng.NormFloat64(), rng.NormFloat64()
						}
						p.applyBlock(b, &ps.pass, add, ps.u, y1, buf1)
						p.applyBlockPerNode(b, &ps.pass, add, ps.u, y2, buf2)
						if i := firstBitDiff(y1, y2); i >= 0 {
							t.Fatalf("%s pass, block %d (add %v): y[%d] = %v, per node %v", name, b, add, i, y1[i], y2[i])
						}
						if i := firstBitDiff(buf1, buf2); i >= 0 {
							t.Fatalf("%s pass, block %d (add %v): overlap buffer [%d] = %v, per node %v", name, b, add, i, buf1[i], buf2[i])
						}
					}
				}
				elems := rng.Perm(nel)[:nel/2]
				y0 := randVelocity(rng, n)
				y1, y2 := slices.Clone(y0), slices.Clone(y0)
				p.applyElements(elems, &ps.pass, ps.u, y1)
				p.applyElementsPerNode(elems, &ps.pass, ps.u, y2)
				if i := firstBitDiff(y1, y2); i >= 0 {
					t.Fatalf("%s subset apply: y[%d] = %v, per node %v", name, i, y1[i], y2[i])
				}
			}

			y1 := randVelocity(rng, n)
			y2 := slices.Clone(y1)
			for e := 0; e < nel; e++ {
				var ye [81]float64
				for i := range ye {
					ye[i] = rng.NormFloat64()
				}
				scatterRuns(&info.runs[e], &ye, y1)
				p.scatterAdd(e, &ye, y2)
			}
			if i := firstBitDiff(y1, y2); i >= 0 {
				t.Fatalf("subset scatter: y[%d] = %v, per node %v", i, y1[i], y2[i])
			}

			for e := 0; e < nel; e++ {
				var ue [81]float64
				gatherRuns(&info.runs[e], ur, &ue)
				raw := c.divRows(e, &ue) // the rows of a residual's raw pass
				for _, masked := range []bool{true, false} {
					s1, s2 := raw, c.divElemPerNode(e, ur, false)
					if masked {
						s1, s2 = c.divElem(e, um), c.divElemPerNode(e, um, true)
					}
					if i := firstBitDiff(s1[:], s2[:]); i >= 0 {
						t.Fatalf("divergence of element %d (masked %v): row %d is %x, per node %x",
							e, masked, i, math.Float64bits(s1[i]), math.Float64bits(s2[i]))
					}
				}
			}
		})
	}
}

// TestApplyGDMatchesGAddThenD: the coupled matvec's one pass over G_e
// gives bitwise ApplyGAdd followed by ApplyD on the block schedule (at 1
// and 3 workers), and the per-node gradient scatter followed by the
// per-node divergence rows on the subset path, both accumulating onto a
// nonzero yu; the velocity holds −0 and NaN at constrained dofs. The
// residual's raw-state pass, ApplyGDRaw, gives bitwise ApplyGAdd followed
// by the per-node divergence rows of the state as it is, on a state with
// finite boundary values.
func TestApplyGDMatchesGAddThenD(t *testing.T) {
	for _, noSlip := range []bool{false, true} {
		p := runsProblem(t, 5, 4, 3, noSlip, 7)
		c := p.Coupling()
		rng := rand.New(rand.NewSource(8))
		nu, np, nel := p.DA.NVelDOF(), p.DA.NPresDOF(), p.DA.NElements()
		u := edgeVelocity(rng, p, true)
		pv := randVelocity(rng, np)
		yu0, yp0 := randVelocity(rng, nu), randVelocity(rng, np)
		ur := edgeVelocity(rng, p, false) // a residual's state: finite boundary values

		for _, w := range []int{1, 3} {
			p.Workers = w
			yu1, yp1 := slices.Clone(yu0), slices.Clone(yp0)
			c.ApplyGAdd(pv, yu1)
			c.ApplyD(u, yp1)
			yu2, yp2 := slices.Clone(yu0), slices.Clone(yp0)
			c.ApplyGD(u, pv, yu2, yp2)
			if i := firstBitDiff(yu1, yu2); i >= 0 {
				t.Fatalf("no-slip %v, %d workers: ApplyGD yu[%d] = %v, ApplyGAdd %v", noSlip, w, i, yu2[i], yu1[i])
			}
			if i := firstBitDiff(yp1, yp2); i >= 0 {
				t.Fatalf("no-slip %v, %d workers: ApplyGD yp[%d] = %v, ApplyD %v", noSlip, w, i, yp2[i], yp1[i])
			}

			yu1, yp1 = slices.Clone(yu0), slices.Clone(yp0)
			c.ApplyGAdd(pv, yu1)
			for e := 0; e < nel; e++ {
				s := c.divElemPerNode(e, ur, false)
				copy(yp1[4*e:4*e+4], s[:])
			}
			yu2, yp2 = slices.Clone(yu0), slices.Clone(yp0)
			c.ApplyGDRaw(ur, pv, yu2, yp2)
			if i := firstBitDiff(yu1, yu2); i >= 0 {
				t.Fatalf("no-slip %v, %d workers: ApplyGDRaw yu[%d] = %v, ApplyGAdd %v", noSlip, w, i, yu2[i], yu1[i])
			}
			if i := firstBitDiff(yp1, yp2); i >= 0 {
				t.Fatalf("no-slip %v, %d workers: ApplyGDRaw yp[%d] = %v, per node raw %v", noSlip, w, i, yp2[i], yp1[i])
			}
		}

		elems := rng.Perm(nel)[:2*nel/3]
		yu1, yp1 := slices.Clone(yu0), slices.Clone(yp0)
		for _, e := range elems {
			var ye [81]float64
			c.gradElemPerNode(e, pv, &ye)
			p.scatterAdd(e, &ye, yu1)
			s := c.divElemPerNode(e, u, true)
			copy(yp1[4*e:4*e+4], s[:])
		}
		yu2, yp2 := slices.Clone(yu0), slices.Clone(yp0)
		c.ApplyGDElements(elems, u, pv, yu2, yp2)
		if i := firstBitDiff(yu1, yu2); i >= 0 {
			t.Fatalf("no-slip %v: ApplyGDElements yu[%d] = %v, per node %v", noSlip, i, yu2[i], yu1[i])
		}
		if i := firstBitDiff(yp1, yp2); i >= 0 {
			t.Fatalf("no-slip %v: ApplyGDElements yp[%d] = %v, per node %v", noSlip, i, yp2[i], yp1[i])
		}
	}
}

// gdElements adapts the fused coupling subset call to the ApplyElements
// shape of the allocation test, with the pressure input and output fixed.
type gdElements struct {
	c      *Coupling
	pv, yp la.Vec
}

func (g gdElements) ApplyElements(elems []int, u, y la.Vec) {
	g.c.ApplyGDElements(elems, u, g.pv, y, g.yp)
}
