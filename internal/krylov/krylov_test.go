package krylov

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ptatin3d/internal/la"
)

// lap3d builds the 7-point 3-D Laplacian on an n×n×n grid — an SPD model
// problem with known spectrum.
func lap3d(n int) *la.CSR {
	idx := func(i, j, k int) int { return (k*n+j)*n + i }
	b := la.NewBuilder(n*n*n, n*n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				r := idx(i, j, k)
				b.Add(r, r, 6)
				for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
					ii, jj, kk := i+d[0], j+d[1], k+d[2]
					if ii >= 0 && ii < n && jj >= 0 && jj < n && kk >= 0 && kk < n {
						b.Add(r, idx(ii, jj, kk), -1)
					}
				}
			}
		}
	}
	return b.ToCSR()
}

// nonsym builds a convection–diffusion-like nonsymmetric matrix.
func nonsym(n int) *la.CSR {
	b := la.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, -1.5)
		}
		if i < n-1 {
			b.Add(i, i+1, -0.5)
		}
	}
	return b.ToCSR()
}

func randVec(rng *rand.Rand, n int) la.Vec {
	v := la.NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func residualNorm(a *la.CSR, b, x la.Vec) float64 {
	r := la.NewVec(len(b))
	a.MulVec(x, r)
	r.AXPY(-1, b)
	return r.Norm2()
}

func TestCGSolvesLaplacian(t *testing.T) {
	a := lap3d(6)
	rng := rand.New(rand.NewSource(1))
	b := randVec(rng, a.NRows)
	x := la.NewVec(a.NRows)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	prm := DefaultParams()
	prm.RTol = 1e-10
	res := CG(CSROp{a}, NewJacobi(d), b, x, prm)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if rn := residualNorm(a, b, x); rn > 1e-9*b.Norm2() {
		t.Fatalf("CG true residual %v", rn)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := lap3d(3)
	b := la.NewVec(a.NRows)
	x := la.NewVec(a.NRows)
	res := CG(CSROp{a}, Identity{}, b, x, DefaultParams())
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS should converge immediately: %+v", res)
	}
}

func TestGMRESNonsymmetric(t *testing.T) {
	a := nonsym(200)
	rng := rand.New(rand.NewSource(2))
	b := randVec(rng, a.NRows)
	for _, name := range []string{"gmres", "fgmres"} {
		x := la.NewVec(a.NRows)
		prm := DefaultParams()
		prm.RTol = 1e-10
		prm.Restart = 20
		var res Result
		if name == "gmres" {
			res = GMRES(CSROp{a}, Identity{}, b, x, prm)
		} else {
			res = FGMRES(CSROp{a}, Identity{}, b, x, prm)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge: %+v", name, res)
		}
		if rn := residualNorm(a, b, x); rn > 1e-8*b.Norm2() {
			t.Fatalf("%s true residual %v", name, rn)
		}
	}
}

func TestGMRESRecurrenceMatchesTrueResidual(t *testing.T) {
	a := lap3d(4)
	rng := rand.New(rand.NewSource(3))
	b := randVec(rng, a.NRows)
	x := la.NewVec(a.NRows)
	prm := DefaultParams()
	prm.RTol = 1e-8
	prm.Restart = 50
	res := GMRES(CSROp{a}, Identity{}, b, x, prm)
	if !res.Converged {
		t.Fatal("no convergence")
	}
	rn := residualNorm(a, b, x)
	if math.Abs(rn-res.Residual) > 1e-6*(1+rn) {
		t.Fatalf("recurrence residual %v vs true %v", res.Residual, rn)
	}
}

func TestGCRMonotoneResidual(t *testing.T) {
	a := nonsym(150)
	rng := rand.New(rand.NewSource(4))
	b := randVec(rng, a.NRows)
	x := la.NewVec(a.NRows)
	prm := DefaultParams()
	prm.RTol = 1e-10
	prm.History = true
	res := GCR(CSROp{a}, Identity{}, b, x, prm, nil)
	if !res.Converged {
		t.Fatalf("GCR did not converge: %+v", res)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-12) {
			t.Fatalf("GCR residual not monotone at %d: %v > %v", i, res.History[i], res.History[i-1])
		}
	}
	if rn := residualNorm(a, b, x); rn > 1e-8*b.Norm2() {
		t.Fatalf("GCR true residual %v", rn)
	}
}

func TestGCRCallbackSeesTrueResidual(t *testing.T) {
	a := lap3d(4)
	rng := rand.New(rand.NewSource(5))
	b := randVec(rng, a.NRows)
	x := la.NewVec(a.NRows)
	prm := DefaultParams()
	var lastCB float64
	res := GCR(CSROp{a}, Identity{}, b, x, prm, func(it int, r la.Vec) {
		lastCB = r.Norm2()
	})
	if math.Abs(lastCB-res.Residual) > 1e-12*(1+res.Residual) {
		t.Fatalf("callback residual %v vs result %v", lastCB, res.Residual)
	}
}

// TestFlexibleToleratesVariablePC: FGMRES and GCR must converge with a
// preconditioner that changes every application (here: randomized damping),
// while this would break plain GMRES's reconstruction.
func TestFlexibleToleratesVariablePC(t *testing.T) {
	a := lap3d(5)
	rng := rand.New(rand.NewSource(6))
	b := randVec(rng, a.NRows)
	vpc := PCFunc(func(r, z la.Vec) {
		s := 0.5 + rng.Float64()
		for i := range z {
			z[i] = s * r[i] / 6
		}
	})
	for _, name := range []string{"fgmres", "gcr"} {
		x := la.NewVec(a.NRows)
		prm := DefaultParams()
		prm.RTol = 1e-8
		var res Result
		if name == "fgmres" {
			res = FGMRES(CSROp{a}, vpc, b, x, prm)
		} else {
			res = GCR(CSROp{a}, vpc, b, x, prm, nil)
		}
		if !res.Converged {
			t.Fatalf("%s with variable PC: %+v", name, res)
		}
		if rn := residualNorm(a, b, x); rn > 1e-6*b.Norm2() {
			t.Fatalf("%s true residual %v", name, rn)
		}
	}
}

func TestChebyshevSmootherReducesError(t *testing.T) {
	a := lap3d(8)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	jac := NewJacobi(d)
	lmax := EstimateLambdaMax(CSROp{a}, jac, 15)
	if lmax < 1 || lmax > 2.5 {
		// Jacobi-preconditioned Laplacian has λmax < 2.
		t.Fatalf("λmax estimate %v out of range", lmax)
	}
	ch := NewChebyshev(CSROp{a}, jac, lmax, 2)
	rng := rand.New(rand.NewSource(8))
	b := randVec(rng, a.NRows)
	x := la.NewVec(a.NRows)
	r0 := residualNorm(a, b, x)
	// Two V(2,2)-style sweeps of 2 Chebyshev steps each.
	ch.Smooth(b, x, true)
	r1 := residualNorm(a, b, x)
	ch.Smooth(b, x, false)
	r2 := residualNorm(a, b, x)
	if r1 >= r0 || r2 >= r1 {
		t.Fatalf("Chebyshev not contracting: %v -> %v -> %v", r0, r1, r2)
	}
	// High-frequency error must be strongly damped: the vector with
	// alternating signs is near the top of the spectrum.
	e := la.NewVec(a.NRows)
	for i := range e {
		if i%2 == 0 {
			e[i] = 1
		} else {
			e[i] = -1
		}
	}
	zero := la.NewVec(a.NRows)
	ae := la.NewVec(a.NRows)
	a.MulVec(e, ae) // rhs for exact solution e
	xs := la.NewVec(a.NRows)
	ch.Smooth(ae, xs, true)
	// Error after smoothing.
	xs.AXPY(-1, e)
	if ratio := xs.Norm2() / e.Norm2(); ratio > 0.5 {
		t.Fatalf("high-frequency damping ratio %v", ratio)
	}
	_ = zero
}

func TestBlockJacobiExactWhenSingleBlock(t *testing.T) {
	a := lap3d(3)
	bj, err := NewBlockJacobi(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b := randVec(rng, a.NRows)
	z := la.NewVec(a.NRows)
	bj.Apply(b, z)
	if rn := residualNorm(a, b, z); rn > 1e-9*b.Norm2() {
		t.Fatalf("single-block BJ not exact: %v", rn)
	}
}

func TestBlockJacobiAcceleratesCG(t *testing.T) {
	a := lap3d(6)
	rng := rand.New(rand.NewSource(10))
	b := randVec(rng, a.NRows)
	prm := DefaultParams()
	prm.RTol = 1e-8
	x1 := la.NewVec(a.NRows)
	plain := CG(CSROp{a}, Identity{}, b, x1, prm)
	bj, err := NewBlockJacobi(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	x2 := la.NewVec(a.NRows)
	pc := CG(CSROp{a}, bj, b, x2, prm)
	if !pc.Converged || pc.Iterations >= plain.Iterations {
		t.Fatalf("BJ-CG %d its vs plain %d", pc.Iterations, plain.Iterations)
	}
}

func TestASMPreconditioner(t *testing.T) {
	a := lap3d(8)
	rng := rand.New(rand.NewSource(11))
	b := randVec(rng, a.NRows)
	for _, exact := range []bool{false, true} {
		asm, err := NewASM(a, ASMOptions{Subdomains: 8, Overlap: 2, Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		if len(asm.subs) != 8 {
			t.Fatalf("subdomains = %d", len(asm.subs))
		}
		x := la.NewVec(a.NRows)
		prm := DefaultParams()
		prm.RTol = 1e-8
		res := CG(CSROp{a}, asm, b, x, prm)
		// RAS is nonsymmetric; CG may still work well for this SPD problem,
		// but validate via the true residual.
		if rn := residualNorm(a, b, x); !res.Converged || rn > 1e-6*b.Norm2() {
			t.Fatalf("exact=%v: ASM-CG residual %v (converged=%v)", exact, rn, res.Converged)
		}
	}
}

func TestASMOverlapImprovesConvergence(t *testing.T) {
	a := lap3d(8)
	rng := rand.New(rand.NewSource(12))
	b := randVec(rng, a.NRows)
	its := make(map[int]int)
	for _, ov := range []int{0, 3} {
		asm, err := NewASM(a, ASMOptions{Subdomains: 16, Overlap: ov})
		if err != nil {
			t.Fatal(err)
		}
		x := la.NewVec(a.NRows)
		prm := DefaultParams()
		prm.RTol = 1e-8
		res := FGMRES(CSROp{a}, asm, b, x, prm)
		if !res.Converged {
			t.Fatalf("overlap %d: no convergence", ov)
		}
		its[ov] = res.Iterations
	}
	if its[3] > its[0] {
		t.Fatalf("overlap did not help: %v", its)
	}
}

func TestInnerKrylovAsPC(t *testing.T) {
	a := lap3d(6)
	rng := rand.New(rand.NewSource(13))
	b := randVec(rng, a.NRows)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	inner := &InnerKrylov{A: CSROp{a}, M: NewJacobi(d), Method: "cg",
		Prm: Params{RTol: 1e-2, ATol: 1e-50, MaxIt: 25}}
	x := la.NewVec(a.NRows)
	prm := DefaultParams()
	prm.RTol = 1e-9
	res := FGMRES(CSROp{a}, inner, b, x, prm)
	if !res.Converged || res.Iterations > 10 {
		t.Fatalf("inner-Krylov PC: %+v", res)
	}
}

func TestEstimateLambdaMaxDeterministic(t *testing.T) {
	a := lap3d(5)
	l1 := EstimateLambdaMax(CSROp{a}, Identity{}, 12)
	l2 := EstimateLambdaMax(CSROp{a}, Identity{}, 12)
	if l1 != l2 {
		t.Fatalf("λmax estimate not deterministic: %v vs %v", l1, l2)
	}
	// For the unpreconditioned 7-pt Laplacian λmax < 12 and > 6.
	if l1 < 6 || l1 > 12 {
		t.Fatalf("λmax = %v out of [6,12]", l1)
	}
}

// TestSolveRejectsUnknownMethod: the dispatcher runs "gcr" and "fgmres"
// as the functions of those names do, and names any other method in
// Result.Err — touching neither operator nor x — instead of picking one.
func TestSolveRejectsUnknownMethod(t *testing.T) {
	a := nonsym(40)
	rng := rand.New(rand.NewSource(4))
	b := randVec(rng, 40)
	prm := DefaultParams()
	for _, method := range []string{"gcr", "fgmres"} {
		x, ref := la.NewVec(40), la.NewVec(40)
		res := Solve(method, CSROp{A: a}, Identity{}, b, x, prm)
		want := FGMRES(CSROp{A: a}, Identity{}, b, ref, prm)
		if method == "gcr" {
			ref.Zero()
			want = GCR(CSROp{A: a}, Identity{}, b, ref, prm, nil)
		}
		if res.Err != nil || !res.Converged || res.Iterations != want.Iterations {
			t.Fatalf("Solve(%q): %+v, want the %d iterations of the direct call", method, res, want.Iterations)
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("Solve(%q) differs from the direct call at %d", method, i)
			}
		}
	}
	for _, method := range []string{"", "gmres", "GCR", "bicgstab"} {
		x := la.NewVec(40)
		applied := false
		op := OpFunc{Dim: 40, F: func(u, v la.Vec) { applied = true }}
		res := Solve(method, op, Identity{}, b, x, prm)
		if res.Err == nil || res.Converged {
			t.Fatalf("Solve(%q) = %+v, want an error", method, res)
		}
		if !strings.Contains(res.Err.Error(), strconv.Quote(method)) {
			t.Fatalf("Solve(%q) error %q does not name the method", method, res.Err)
		}
		if applied || x.Norm2() != 0 {
			t.Fatalf("Solve(%q) ran something before failing", method)
		}
	}
}
