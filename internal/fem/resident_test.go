package fem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// TestResidentMatchesTensor: the resident operator (both precisions) must
// reproduce the tensor-product reference apply — float64 to roundoff
// (the stored 15-float factorization replaces the on-the-fly Jacobian
// inversion), float32 to single-precision accuracy.
func TestResidentMatchesTensor(t *testing.T) {
	grids := [][3]int{{3, 2, 2}, {4, 4, 4}, {6, 3, 5}}
	for _, g := range grids {
		p := testProblem(t, g[0], g[1], g[2], 1)
		randomizeEta(p, int64(11*g[0]+g[2]))
		rng := rand.New(rand.NewSource(17))
		n := p.DA.NVelDOF()
		u := randVelocity(rng, n)

		ref := la.NewVec(n)
		NewTensor(p).Apply(u, ref)
		scale := ref.NormInf()

		y64 := la.NewVec(n)
		NewResident(p, false).Apply(u, y64)
		for i := 0; i < n; i++ {
			if math.Abs(y64[i]-ref[i]) > 1e-12*scale {
				t.Fatalf("grid %v: f64 resident vs tensor at dof %d: %v vs %v", g, i, y64[i], ref[i])
			}
		}

		y32 := la.NewVec(n)
		NewResident(p, true).Apply(u, y32)
		for i := 0; i < n; i++ {
			if math.Abs(y32[i]-ref[i]) > 2e-4*scale {
				t.Fatalf("grid %v: f32 resident vs tensor at dof %d: %v vs %v (|Δ|=%.3e, scale %.3e)",
					g, i, y32[i], ref[i], math.Abs(y32[i]-ref[i]), scale)
			}
		}
	}
}

// TestResidentDeterminism: like the slab apply, the resident apply must
// be bit-identical across worker counts at both precisions — the block
// partition, in-block element order and ascending-slab merge are all
// worker-count independent.
func TestResidentDeterminism(t *testing.T) {
	BothKernels(t, 0xc71536c70a246f71, testResidentDeterminism)
}

func testResidentDeterminism(t *testing.T) uint64 {
	hash := HashSeed
	// 8³ is the size at which a block is long enough (~100 µs) for a woken
	// pool worker to take some of them: repeated there, so that who ran
	// which block varies.
	for _, g := range [][3]int{{5, 4, 3}, {8, 8, 8}} {
		p := testProblem(t, g[0], g[1], g[2], 1)
		randomizeEta(p, 23)
		rng := rand.New(rand.NewSource(5))
		n := p.DA.NVelDOF()
		u := randVelocity(rng, n)

		for _, f32 := range []bool{false, true} {
			op := NewResident(p, f32)
			p.Workers = 1
			ref := la.NewVec(n)
			op.Apply(u, ref)
			hash = HashFloats(hash, ref)
			for _, w := range []int{2, 3, 4, 8} {
				p.Workers = w
				for rep := 0; rep < 3; rep++ {
					y := la.NewVec(n)
					op.Apply(u, y)
					for i := 0; i < n; i++ {
						if y[i] != ref[i] {
							t.Fatalf("grid %v f32=%v workers=%d: dof %d differs bitwise: %x vs %x",
								g, f32, w, i, math.Float64bits(y[i]), math.Float64bits(ref[i]))
						}
					}
				}
			}
		}
	}
	return hash
}

// dep2Partition is a contiguous slab partition of a 2×6×1 mesh whose
// two-element slabs straddle element rows, so an edge node between rows is
// touched by three consecutive slabs: dependency distance 2, which no
// registered mesh's plane-aligned partition produces.
var dep2Partition = []int{0, 1, 3, 4, 6, 7, 9, 10, 12}

// TestBlockedChebyshevBitIdentical is the smoother property test of the
// blocking change: k cache-blocked wavefront sweeps must equal k
// full-grid Chebyshev sweeps over the same resident operator BITWISE —
// for any worker count (group sizes that do and do not divide the block
// count), step count, zero and nonzero initial guesses, both precisions,
// and dependency distances 1 and 2.
func TestBlockedChebyshevBitIdentical(t *testing.T) {
	BothKernels(t, 0xfb5b02a28c259b6b, testBlockedChebyshevBitIdentical)
}

func testBlockedChebyshevBitIdentical(t *testing.T) uint64 {
	hash := HashSeed
	cases := []struct {
		g   [3]int
		off []int // nil: the Problem's own partition
		dep int
	}{
		{g: [3]int{4, 3, 3}, dep: 1},
		{g: [3]int{6, 3, 5}, dep: 1},
		{g: [3]int{2, 6, 1}, off: dep2Partition, dep: 2},
		// The size at which pool workers do take items of a visit (a block
		// apply is ~100 µs, about a parked worker's wake-up).
		{g: [3]int{8, 8, 8}, dep: 1},
	}
	for _, tc := range cases {
		g := tc.g
		p := testProblem(t, g[0], g[1], g[2], 1)
		if tc.off != nil {
			p.slabOnce.Do(func() { p.slab = newSlabInfo(p, tc.off) })
		}
		randomizeEta(p, int64(3*g[0]+g[1]))
		n := p.DA.NVelDOF()
		diag := la.NewVec(n)
		Diagonal(p, diag)
		jac := krylov.NewJacobi(diag)

		for _, f32 := range []bool{false, true} {
			op := NewResident(p, f32)
			if info := p.slabs(); tc.off != nil && info.dep != tc.dep {
				t.Fatalf("grid %v: dependency distance %d, want %d", g, info.dep, tc.dep)
			}
			lmax := krylov.EstimateLambdaMaxIn(op, jac, 10, la.NewVec(op.N()), la.NewVec(op.N()), la.NewVec(op.N()))
			for _, steps := range []int{1, 2, 3, 4} {
				rng := rand.New(rand.NewSource(int64(100*steps + g[2])))
				b := randVelocity(rng, n)
				x0 := randVelocity(rng, n)

				for _, zeroGuess := range []bool{true, false} {
					p.Workers = 1
					ref := la.NewVec(n)
					if !zeroGuess {
						ref.Copy(x0)
					}
					krylov.NewChebyshev(op, jac, lmax, steps).Smooth(b, ref, zeroGuess)
					hash = HashFloats(hash, ref)

					for _, w := range []int{1, 2, 3, 5, 8} {
						p.Workers = w
						x := la.NewVec(n)
						if !zeroGuess {
							x.Copy(x0)
						}
						bl := NewBlockedChebyshev(op, jac.InvDiag, lmax, steps)
						bl.Smooth(b, x, zeroGuess)
						for i := 0; i < n; i++ {
							if x[i] != ref[i] {
								t.Fatalf("grid %v f32=%v steps=%d zeroGuess=%v workers=%d: dof %d differs bitwise: %x vs %x (Δ=%.3e)",
									g, f32, steps, zeroGuess, w, i,
									math.Float64bits(x[i]), math.Float64bits(ref[i]), x[i]-ref[i])
							}
						}
					}
				}
			}
		}
		p.Workers = 1
	}
	return hash
}

// TestBlockedWaveWidth checks the grouped two-phase schedule itself, with
// no arithmetic involved: every (slot, block) item is issued exactly once,
// every read follows its write and precedes the next overwrite (the
// hazard table of BlockedChebyshev), some apply phase is at least
// min(workers, B) items wide, and one worker issues exactly the
// block-at-a-time wavefront w = b + j·(D+1).
func TestBlockedWaveWidth(t *testing.T) {
	type when struct{ wave, phase int } // phase 0: advance, 1: apply
	before := func(a, b when) bool { return a.wave < b.wave || (a.wave == b.wave && a.phase < b.phase) }
	const B = 8
	for _, dep := range []int{0, 1, 2, 7} {
		for _, workers := range []int{1, 2, 3, 5, 8, 16} {
			for steps := 1; steps <= 4; steps++ {
				for _, zeroGuess := range []bool{true, false} {
					sch := newWaveSchedule(B, dep, workers, steps, zeroGuess)
					adv := map[waveItem]when{}
					app := map[waveItem]when{}
					var advSeq, appSeq []waveItem
					widest := 0
					for w := 0; w < sch.waves(); w++ {
						a, p := sch.items(w, nil, nil)
						for _, it := range a {
							if _, dup := adv[it]; dup {
								t.Fatalf("advance %v issued twice", it)
							}
							adv[it] = when{w, 0}
						}
						for _, it := range p {
							if _, dup := app[it]; dup {
								t.Fatalf("apply %v issued twice", it)
							}
							app[it] = when{w, 1}
						}
						advSeq, appSeq = append(advSeq, a...), append(appSeq, p...)
						widest = max(widest, len(p))
					}
					name := fmt.Sprintf("dep=%d workers=%d steps=%d zeroGuess=%v", dep, workers, steps, zeroGuess)
					lead := sch.lead
					if len(adv) != steps*B || len(app) != (steps-1+lead)*B {
						t.Fatalf("%s: %d advances and %d applies, want %d and %d",
							name, len(adv), len(app), steps*B, (steps-1+lead)*B)
					}
					if len(app) > 0 && widest < min(workers, B) {
						t.Fatalf("%s: widest apply phase has %d items, want >= %d", name, widest, min(workers, B))
					}
					for it, at := range adv {
						// Reads slot-1's applies of blocks [b, b+dep] (none for
						// step 0 from a zero guess) ...
						for b := it.blk; b <= min(it.blk+dep, B-1); b++ {
							prev, ok := app[waveItem{it.slot - 1, b}]
							if it.slot == 0 {
								continue
							}
							if !ok || !before(prev, at) {
								t.Fatalf("%s: advance %v at %v before apply (%d,%d) at %v", name, it, at, it.slot-1, b, prev)
							}
						}
						// ... and overwrites p, which slot-1's applies of the
						// same blocks were the last to read (covered above), and
						// this slot's applies are the next to read:
						for b := it.blk; b <= min(it.blk+dep, B-1); b++ {
							if next, ok := app[waveItem{it.slot, b}]; ok && !before(at, next) {
								t.Fatalf("%s: apply (%d,%d) at %v before advance %v at %v", name, it.slot, b, next, it, at)
							}
						}
					}
					for it, at := range app {
						// Overwrites bufs[b], which the next slot's advances of
						// blocks [b-dep, b] read, and which this slot's advances
						// of those blocks were the last to read.
						for b := max(0, it.blk-dep); b <= it.blk; b++ {
							if last, ok := adv[waveItem{it.slot, b}]; ok && !before(last, at) {
								t.Fatalf("%s: apply %v at %v overwrites bufs before advance (%d,%d) at %v", name, it, at, it.slot, b, last)
							}
							// p on own(b) must still hold this slot's value.
							if next, ok := adv[waveItem{it.slot + 1, b}]; ok && !before(at, next) {
								t.Fatalf("%s: advance (%d,%d) at %v overwrites p before apply %v at %v", name, it.slot+1, b, next, it, at)
							}
						}
					}
					if workers != 1 {
						continue
					}
					// One worker: the block-at-a-time wavefront, slot by slot.
					var wantAdv, wantApp []waveItem
					stride := dep + 1
					slots := steps + lead
					for w := 0; w <= (B-1)+(slots-1)*stride; w++ {
						for j := 0; j < slots; j++ {
							blk := w - j*stride
							if blk < 0 || blk >= B {
								continue
							}
							if j >= lead {
								wantAdv = append(wantAdv, waveItem{j, blk})
							}
							if j-lead < steps-1 {
								wantApp = append(wantApp, waveItem{j, blk})
							}
						}
					}
					if !slices.Equal(advSeq, wantAdv) || !slices.Equal(appSeq, wantApp) {
						t.Fatalf("%s: one-worker sequence differs from the block wavefront:\nadv %v\nwant %v\napp %v\nwant %v",
							name, advSeq, wantAdv, appSeq, wantApp)
					}
				}
			}
		}
	}
}

// textbookChebyshev is the Chebyshev recurrence with every residual
// computed, the last one included: the oracle krylov.Chebyshev, which
// never computes that one, is compared against.
func textbookChebyshev(a krylov.Op, invDiag la.Vec, lo, hi float64, steps int, b, x la.Vec, zeroGuess bool) {
	n := a.N()
	r, z, p, ap := la.NewVec(n), la.NewVec(n), la.NewVec(n), la.NewVec(n)
	d, half := (hi+lo)/2, (hi-lo)/2
	if zeroGuess {
		r.Copy(b)
		x.Zero()
	} else {
		a.Apply(x, r)
		r.AYPX(-1, b)
	}
	var alpha float64
	for i := 0; i < steps; i++ {
		z.PointwiseMultSpans(invDiag, r, nil)
		switch i {
		case 0:
			p.Copy(z)
			alpha = 1 / d
		default:
			beta := (half * alpha / 2) * (half * alpha / 2)
			if i == 1 {
				beta = 0.5 * (half * alpha) * (half * alpha)
			}
			alpha = 1 / (d - beta/alpha)
			p.AYPX(beta, z)
		}
		x.AXPY(alpha, p)
		a.Apply(p, ap)
		r.AXPY(-alpha, ap)
	}
}

// TestChebyshevNoFinalResidualSameX: never computing the final operator
// apply must not change the smoothed iterate — that work only feeds a
// residual no further step consumes.
func TestChebyshevNoFinalResidualSameX(t *testing.T) {
	p := testProblem(t, 4, 3, 3, 1)
	randomizeEta(p, 77)
	n := p.DA.NVelDOF()
	diag := la.NewVec(n)
	Diagonal(p, diag)
	jac := krylov.NewJacobi(diag)
	op := NewResident(p, false)
	lmax := krylov.EstimateLambdaMaxIn(op, jac, 10, la.NewVec(op.N()), la.NewVec(op.N()), la.NewVec(op.N()))

	rng := rand.New(rand.NewSource(8))
	b := randVelocity(rng, n)
	for _, steps := range []int{1, 2, 3} {
		for _, zeroGuess := range []bool{true, false} {
			x0 := randVelocity(rng, n)
			full := la.NewVec(n)
			elided := la.NewVec(n)
			if !zeroGuess {
				full.Copy(x0)
				elided.Copy(x0)
			}
			cheb := krylov.NewChebyshev(op, jac, lmax, steps)
			textbookChebyshev(op, jac.InvDiag, cheb.Lo, cheb.Hi, steps, b, full, zeroGuess)
			cheb.Smooth(b, elided, zeroGuess)
			for i := 0; i < n; i++ {
				if full[i] != elided[i] {
					t.Fatalf("steps=%d zeroGuess=%v: dof %d differs: %v vs %v", steps, zeroGuess, i, full[i], elided[i])
				}
			}
		}
	}
}

// TestResidentApplyElements: summing the per-element partial applies over
// any partition of the element range plus identity rows must equal the
// full resident apply (the distributed halo path builds on this).
func TestResidentApplyElements(t *testing.T) {
	p := testProblem(t, 4, 4, 3, 1)
	randomizeEta(p, 13)
	rng := rand.New(rand.NewSource(2))
	n := p.DA.NVelDOF()
	u := randVelocity(rng, n)
	nel := p.DA.NElements()

	for _, f32 := range []bool{false, true} {
		op := NewResident(p, f32)
		ref := la.NewVec(n)
		op.Apply(u, ref)
		scale := ref.NormInf()

		half := nel / 2
		lo := make([]int, 0, half)
		hi := make([]int, 0, nel-half)
		for e := 0; e < nel; e++ {
			if e < half {
				lo = append(lo, e)
			} else {
				hi = append(hi, e)
			}
		}
		y := la.NewVec(n)
		op.ApplyElements(lo, u, y)
		op.ApplyElements(hi, u, y)
		applyIdentityRows(p, u, y)
		for i := 0; i < n; i++ {
			if math.Abs(y[i]-ref[i]) > 1e-13*scale {
				t.Fatalf("f32=%v: partial-apply sum differs at dof %d: %v vs %v", f32, i, y[i], ref[i])
			}
		}
	}
}

var kernelSink float64

// BenchmarkElementKernel times the float64 resident element kernel in both
// encodings on one element whose blocks stay in L1: ns per element, and
// GF/s at perfmodel's 9500 flops per element (check.sh smokes it beside
// BenchmarkVCycle; -benchtime 200000x gives numbers).
func BenchmarkElementKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var coef [15 * NQP]float64
	var ue, ye [81]float64
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	for i := range ue {
		ue[i] = rng.NormFloat64()
	}
	ks := new(kernScratchG[float64])
	for _, vector := range []bool{true, false} {
		name := "go"
		if vector {
			name = "avx2"
		}
		b.Run(name, func(b *testing.B) {
			defer setVectorKernel(setVectorKernel(vector))
			if KernelName() != name {
				b.Skip("no AVX2 on this host")
			}
			for i := 0; i < b.N; i++ {
				residentElement64(&coef, &ue, &ye, ks)
			}
			kernelSink = ye[40]
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/element")
			b.ReportMetric(9500/ns, "GF/s")
		})
	}
}

// BenchmarkElementViscousMatrix times the 81×81 element matrix of the
// viscous block that the level-1 assembly refresh computes, in both
// encodings, on a batch of viscousLanes elements of a deformed,
// variable-η mesh: ns per element (check.sh smokes it beside
// BenchmarkElementKernel; -benchtime 2000x gives numbers).
func BenchmarkElementViscousMatrix(b *testing.B) {
	p := testProblem(b, 2, 2, 1, 1)
	geo := p.geom()
	bt := new(viscousBatch)
	for lane := 0; lane < viscousLanes; lane++ {
		bt.load(lane, geo, lane, p.Eta[NQP*lane:NQP*lane+NQP])
	}
	for _, vector := range []bool{true, false} {
		name := "go"
		if vector {
			name = "avx2"
		}
		b.Run(name, func(b *testing.B) {
			defer setVectorKernel(setVectorKernel(vector))
			if KernelName() != name {
				b.Skip("no AVX2 on this host")
			}
			for i := 0; i < b.N; i++ {
				bt.matrices(&bt.ae, viscousLanes)
			}
			kernelSink = bt.ae[40][0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(viscousLanes*b.N), "ns/element")
		})
	}
}
