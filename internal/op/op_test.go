package op_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
)

// equivTol is the agreement bound between operator representations,
// scaled by the result magnitude (ISSUE acceptance: 1e-12).
const equivTol = 1e-12

// equivCase holds one randomized nested problem pair: the level under
// test plus the 2× finer problem the Galerkin product coarsens from.
type equivCase struct {
	coarse, fine *fem.Problem
	prol         *mg.Prolongation
}

// randomEquivCase builds a deformed nested mesh pair with a randomized
// heterogeneous viscosity field and a free-slip base constraint pattern.
func randomEquivCase(t *testing.T, m int, rng *rand.Rand) equivCase {
	t.Helper()
	fda := mesh.New(2*m, 2*m, 2*m, 0, 1, 0, 1, 0, 1)
	a1 := 0.02 + 0.04*rng.Float64()
	a2 := 0.02 + 0.04*rng.Float64()
	p1 := 2 * math.Pi * rng.Float64()
	fda.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + a1*math.Sin(math.Pi*y+p1), y + a2*math.Sin(math.Pi*z), z + 0.03*x*y
	})
	cda := fda.Coarsen()
	fbc := mesh.NewBC(fda)
	fbc.FreeSlipBox(fda, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	cbc := mesh.CoarsenBC(fda, cda, fbc)

	c1 := 1 + 3*rng.Float64()
	w1 := 1 + 5*rng.Float64()
	w2 := 1 + 5*rng.Float64()
	eta := func(x, y, z float64) float64 {
		return math.Exp(c1 * math.Sin(w1*x) * math.Cos(w2*y) * math.Sin(2*z))
	}
	cp := fem.NewProblem(cda, cbc)
	cp.Workers = 2
	cp.SetCoefficientsFunc(eta, nil)
	fp := fem.NewProblem(fda, fbc)
	fp.Workers = 2
	fp.SetCoefficientsFunc(eta, nil)
	return equivCase{coarse: cp, fine: fp, prol: mg.NewProlongation(fda, cda, fbc, cbc)}
}

func randVec(rng *rand.Rand, n int) la.Vec {
	v := la.NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestOpEquivalence checks that every registered representation of the
// same viscous block — tensor matrix-free, reference matrix-free,
// rediscretized CSR, and the resident kernel that keeps its matrix as a
// Galerkin input, whose apply must also agree with that matrix's own
// SpMV — produces identical results (to equivTol × the result
// magnitude) on randomized heterogeneous-viscosity fields across three
// mesh sizes, and that the Galerkin product matches the explicit
// composition Pᵀ·(A_fine·(P·x)) on free rows with identity behaviour on
// constrained rows.
func TestOpEquivalence(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		m := m
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + m)))
			ec := randomEquivCase(t, m, rng)
			n := ec.coarse.DA.NVelDOF()

			kinds := []op.Kind{op.Tensor, op.TensorC, op.MFRef, op.Assembled}
			ops := make([]op.Operator, len(kinds))
			for i, k := range kinds {
				o, err := op.New(k, op.Env{Prob: ec.coarse, Workers: 2})
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				if err := o.Setup(); err != nil {
					t.Fatalf("%v setup: %v", k, err)
				}
				ops[i] = o
			}
			// The default layout's level 1: resident apply, matrix handed off.
			handoff, err := op.New(op.TensorC, op.Env{Prob: ec.coarse, Workers: 2, GalerkinInput: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := handoff.Setup(); err != nil {
				t.Fatal(err)
			}
			if handoff.CSR() == nil || op.ResidentOf(handoff) == nil {
				t.Fatal("Galerkin-input resident operator lacks its matrix or its resident backing")
			}
			kinds = append(kinds, op.TensorC)
			ops = append(ops, handoff)

			var fineA *la.CSR
			genv := op.Env{
				Prob:    ec.coarse,
				Workers: 2,
				FineCSR: func() *la.CSR {
					if fineA == nil {
						fineA = fem.AssembleViscous(ec.fine)
					}
					return fineA
				},
				Prolong: ec.prol.ToCSR,
			}
			galk, err := op.New(op.Galerkin, genv)
			if err != nil {
				t.Fatalf("galerkin: %v", err)
			}
			if err := galk.Setup(); err != nil {
				t.Fatalf("galerkin setup: %v", err)
			}
			pm := ec.prol.ToCSR()

			for trial := 0; trial < 3; trial++ {
				x := randVec(rng, n)
				ys := make([]la.Vec, len(ops))
				for i, o := range ops {
					ys[i] = la.NewVec(n)
					o.Apply(x, ys[i])
				}
				scale := ys[0].NormInf()
				if scale == 0 {
					t.Fatal("degenerate problem: zero operator result")
				}
				// The handed-off matrix applied by itself is one more row.
				yCSR := la.NewVec(n)
				handoff.CSR().MulVec(x, yCSR)
				kinds, ys := append(kinds, op.Assembled), append(ys, yCSR)
				for i := 1; i < len(ys); i++ {
					for d := 0; d < n; d++ {
						if diff := math.Abs(ys[i][d] - ys[0][d]); diff > equivTol*scale {
							t.Fatalf("trial %d: %v vs %v mismatch at dof %d: %v vs %v (|Δ|=%.3e)",
								trial, kinds[i], kinds[0], d, ys[i][d], ys[0][d], diff)
						}
					}
				}

				// Galerkin against the explicit triple-product composition.
				yg := la.NewVec(n)
				galk.Apply(x, yg)
				xf := la.NewVec(ec.fine.DA.NVelDOF())
				pm.MulVec(x, xf)
				axf := la.NewVec(len(xf))
				genv.FineCSR().MulVec(xf, axf)
				want := la.NewVec(n)
				pm.Transpose().MulVec(axf, want)
				gscale := want.NormInf()
				if gscale == 0 {
					gscale = 1
				}
				for d := 0; d < n; d++ {
					if ec.coarse.BC.Mask[d] {
						if yg[d] != x[d] {
							t.Fatalf("trial %d: galerkin constrained row %d not identity: %v vs %v",
								trial, d, yg[d], x[d])
						}
						continue
					}
					if diff := math.Abs(yg[d] - want[d]); diff > equivTol*gscale {
						t.Fatalf("trial %d: galerkin vs Pᵀ(A(Px)) mismatch at dof %d: %v vs %v (|Δ|=%.3e)",
							trial, d, yg[d], want[d], diff)
					}
				}
			}
		})
	}
}

// TestOpDiagEquivalence checks that the representation-specific diagonals
// of the shared matrix agree: the matrix-free diagonal and the CSR
// diagonal of the rediscretized operator describe the same operator.
func TestOpDiagEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ec := randomEquivCase(t, 3, rng)
	n := ec.coarse.DA.NVelDOF()
	mf, err := op.New(op.Tensor, op.Env{Prob: ec.coarse, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	asm, err := op.New(op.Assembled, op.Env{Prob: ec.coarse, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Setup(); err != nil {
		t.Fatal(err)
	}
	d1, d2 := la.NewVec(n), la.NewVec(n)
	mf.Diag(d1)
	asm.Diag(d2)
	scale := d1.NormInf()
	for i := 0; i < n; i++ {
		if diff := math.Abs(d1[i] - d2[i]); diff > equivTol*scale {
			t.Fatalf("diag mismatch at %d: mf %v asm %v", i, d1[i], d2[i])
		}
	}
}

// TestParseKind covers the flag-value aliases and rejection of unknowns.
func TestParseKind(t *testing.T) {
	cases := map[string]op.Kind{
		"mf": op.Tensor, "tensor": op.Tensor,
		"mfref": op.MFRef, "ref": op.MFRef,
		"asm": op.Assembled, "assembled": op.Assembled,
		"galerkin": op.Galerkin, "rap": op.Galerkin,
		"auto": op.Auto,
		"mfc":  op.TensorC, "tensorc": op.TensorC,
		"mf32": op.TensorF32, "asm32": op.AssembledF32,
	}
	for s, want := range cases {
		got, err := op.ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := op.ParseKind("petsc"); err == nil {
		t.Error("ParseKind accepted an unknown representation")
	}
}

// TestAutoSelectsPerLevel drives the multigrid builder with op.Auto on
// every level of a 3-level hierarchy and checks the paper's layout
// emerges: a matrix-free winner on the finest level (compute-bound,
// no setup to amortize) and an assembled representation on the coarsest
// (the coarse solver consumes CSR).
func TestAutoSelectsPerLevel(t *testing.T) {
	op.ResetDecisionCache()
	eta := func(x, y, z float64) float64 {
		return math.Exp(math.Sin(3*x) * math.Cos(2*y) * math.Sin(z))
	}
	da := mesh.New(8, 8, 8, 0, 1, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
	fine := fem.NewProblem(da, bc)
	fine.Workers = 2
	fine.SetCoefficientsFunc(eta, nil)
	probs := mg.CoarsenProblems(fine, 3, mg.FuncCoeffCoarsener(eta, nil))

	pol := op.DefaultPolicy()
	pol.DisableCache = true
	mgp, err := mg.Build(probs, mg.Options{
		Kinds:       []op.Kind{op.Auto, op.Auto, op.Auto},
		SmoothSteps: 2,
		Workers:     2,
		Auto:        pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	decs := mgp.SelectionReport()
	if len(decs) != 3 {
		t.Fatalf("expected 3 auto decisions, got %d", len(decs))
	}
	for _, d := range decs {
		if !d.Committed {
			t.Fatalf("level %d: decision not committed: %+v", d.Level, d)
		}
		t.Log(d.Summary())
	}
	if k := decs[0].Chosen; k != op.Tensor && k != op.TensorC && k != op.MFRef {
		t.Errorf("finest level chose %v; want a matrix-free representation", k)
	}
	last := decs[len(decs)-1]
	if k := last.Chosen; k != op.Assembled && k != op.Galerkin {
		t.Errorf("coarsest level chose %v; want an assembled representation", k)
	}
	if !last.Forced {
		t.Error("coarsest level decision should be forced by the CSR requirement")
	}
}

// TestAutoDecisionCache checks that a second identical hierarchy reuses
// the committed decision instead of re-trialing.
func TestAutoDecisionCache(t *testing.T) {
	op.ResetDecisionCache()
	eta := func(x, y, z float64) float64 { return 1 + x + y*z }
	build := func() op.Decision {
		da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
		bc := mesh.NewBC(da)
		bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
		p := fem.NewProblem(da, bc)
		p.Workers = 2
		p.SetCoefficientsFunc(eta, nil)
		a, err := op.New(op.Auto, op.Env{Prob: p, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		auto := a.(*op.AutoOp)
		if err := auto.Setup(); err != nil {
			t.Fatal(err)
		}
		auto.ForceCommit()
		return auto.Decision()
	}
	first := build()
	if !first.Committed || first.FromCache {
		t.Fatalf("first decision should be a fresh commit: %+v", first)
	}
	second := build()
	if !second.FromCache {
		t.Fatalf("second decision should come from the cache: %+v", second)
	}
	if second.Chosen != first.Chosen {
		t.Fatalf("cache returned %v, first run chose %v", second.Chosen, first.Chosen)
	}
}

// TestF32OpEquivalence checks the reduced-precision representations
// against the float64 tensor reference: TensorF32 and AssembledF32 must
// agree to single-precision accuracy (they are preconditioner
// perturbations, not exact realizations), and AssembledF32's CSR() must
// still hand the exact float64 matrix to coarse-solver consumers.
func TestF32OpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ec := randomEquivCase(t, 3, rng)
	n := ec.coarse.DA.NVelDOF()

	ref, err := op.New(op.Tensor, op.Env{Prob: ec.coarse, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, n)
	want := la.NewVec(n)
	ref.Apply(x, want)
	scale := want.NormInf()

	for _, k := range []op.Kind{op.TensorF32, op.AssembledF32} {
		o, err := op.New(k, op.Env{Prob: ec.coarse, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := o.Setup(); err != nil {
			t.Fatalf("%v setup: %v", k, err)
		}
		y := la.NewVec(n)
		o.Apply(x, y)
		for d := 0; d < n; d++ {
			if diff := math.Abs(y[d] - want[d]); diff > 2e-4*scale {
				t.Fatalf("%v vs tensor mismatch at dof %d: %v vs %v (|Δ|=%.3e)", k, d, y[d], want[d], diff)
			}
		}
	}

	a32, _ := op.New(op.AssembledF32, op.Env{Prob: ec.coarse, Workers: 2})
	a64, _ := op.New(op.Assembled, op.Env{Prob: ec.coarse, Workers: 2})
	m32, m64 := a32.CSR(), a64.CSR()
	if m32 == nil {
		t.Fatal("AssembledF32.CSR() returned nil; coarse handoff needs the f64 matrix")
	}
	if len(m32.Val) != len(m64.Val) {
		t.Fatalf("AssembledF32 f64 matrix has %d nnz, Assembled has %d", len(m32.Val), len(m64.Val))
	}
	for i := range m32.Val {
		if m32.Val[i] != m64.Val[i] {
			t.Fatalf("AssembledF32.CSR() value %d differs from the f64 assembly: %v vs %v",
				i, m32.Val[i], m64.Val[i])
		}
	}
}

// TestResidentOf checks the unwrapping helper: resident-backed kinds
// expose their fem.Resident (including through an Auto commitment), and
// non-resident kinds return nil.
func TestResidentOf(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ec := randomEquivCase(t, 2, rng)
	rc, err := op.New(op.TensorC, op.Env{Prob: ec.coarse, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := op.ResidentOf(rc)
	if r == nil {
		t.Fatal("ResidentOf(TensorC) = nil")
	}
	if r.F32 {
		t.Fatal("TensorC resident reports F32")
	}
	r32c, _ := op.New(op.TensorF32, op.Env{Prob: ec.coarse, Workers: 2})
	if r32 := op.ResidentOf(r32c); r32 == nil || !r32.F32 {
		t.Fatalf("ResidentOf(TensorF32) = %v; want an f32 resident", r32)
	}
	mf, _ := op.New(op.Tensor, op.Env{Prob: ec.coarse, Workers: 2})
	if op.ResidentOf(mf) != nil {
		t.Fatal("ResidentOf(Tensor) != nil")
	}
}

// TestAutoCacheKeyedByPrecision is the regression test for the decision
// cache ignoring precision: an f64 selection must NOT be replayed into an
// AllowF32 selector for the same level shape (and vice versa), because
// the candidate fields — and the acceptable winners — differ.
func TestAutoCacheKeyedByPrecision(t *testing.T) {
	op.ResetDecisionCache()
	eta := func(x, y, z float64) float64 { return 1 + x*y + z }
	build := func(allowF32 bool) op.Decision {
		da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
		bc := mesh.NewBC(da)
		bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
		p := fem.NewProblem(da, bc)
		p.Workers = 2
		p.SetCoefficientsFunc(eta, nil)
		pol := op.DefaultPolicy()
		pol.AllowF32 = allowF32
		a, err := op.New(op.Auto, op.Env{Prob: p, Workers: 2, Policy: &pol})
		if err != nil {
			t.Fatal(err)
		}
		auto := a.(*op.AutoOp)
		if err := auto.Setup(); err != nil {
			t.Fatal(err)
		}
		auto.ForceCommit()
		return auto.Decision()
	}
	f64first := build(false)
	if !f64first.Committed || f64first.FromCache {
		t.Fatalf("first f64 decision should be a fresh commit: %+v", f64first)
	}
	f32first := build(true)
	if f32first.FromCache {
		t.Fatalf("f32 selection replayed the f64 cache entry: %+v", f32first)
	}
	f32second := build(true)
	if !f32second.FromCache || f32second.Chosen != f32first.Chosen {
		t.Fatalf("identical f32 selection should hit the cache: %+v", f32second)
	}
	f64second := build(false)
	if !f64second.FromCache || f64second.Chosen != f64first.Chosen {
		t.Fatalf("f64 cache entry lost after f32 selection: %+v", f64second)
	}
}
