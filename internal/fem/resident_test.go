package fem

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
)

// TestResidentMatchesTensor: the resident operator (both precisions) must
// reproduce the tensor-product reference apply — float64 to roundoff
// (same 15-float coefficient factorization as TensorCOp, different only
// in summation bookkeeping), float32 to single-precision accuracy.
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
	p := testProblem(t, 5, 4, 3, 1)
	randomizeEta(p, 23)
	rng := rand.New(rand.NewSource(5))
	n := p.DA.NVelDOF()
	u := randVelocity(rng, n)

	for _, f32 := range []bool{false, true} {
		op := NewResident(p, f32)
		p.Workers = 1
		ref := la.NewVec(n)
		op.Apply(u, ref)
		for _, w := range []int{2, 4, 8} {
			p.Workers = w
			y := la.NewVec(n)
			op.Apply(u, y)
			for i := 0; i < n; i++ {
				if y[i] != ref[i] {
					t.Fatalf("f32=%v workers=%d: dof %d differs bitwise: %x vs %x",
						f32, w, i, math.Float64bits(y[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
	p.Workers = 1
}

// TestBlockedChebyshevBitIdentical is the smoother property test of the
// blocking change: k cache-blocked wavefront sweeps must equal k
// full-grid Chebyshev sweeps over the same resident operator BITWISE —
// for any worker count, step count, zero and nonzero initial guesses, and
// both precisions.
func TestBlockedChebyshevBitIdentical(t *testing.T) {
	grids := [][3]int{{4, 3, 3}, {6, 3, 5}}
	for _, g := range grids {
		p := testProblem(t, g[0], g[1], g[2], 1)
		randomizeEta(p, int64(3*g[0]+g[1]))
		n := p.DA.NVelDOF()
		diag := la.NewVec(n)
		Diagonal(p, diag)
		jac := krylov.NewJacobi(diag)

		for _, f32 := range []bool{false, true} {
			op := NewResident(p, f32)
			lmax := krylov.EstimateLambdaMax(op, jac, 10)
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

					for _, w := range []int{1, 2, 4, 8} {
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
		z.PointwiseMult(invDiag, r)
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
	lmax := krylov.EstimateLambdaMax(op, jac, 10)

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
