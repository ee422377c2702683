package op_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
		"mfc": op.TensorC, "tensorc": op.TensorC,
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
	_, err := op.ParseKind("auto")
	if err == nil || !strings.Contains(err.Error(), "selector") || !strings.Contains(err.Error(), "removed") ||
		!strings.Contains(err.Error(), "mfc") || !strings.Contains(err.Error(), "galerkin") {
		t.Errorf("ParseKind(\"auto\") = %v; want an error saying the selector was removed and naming the fixed layout", err)
	}
}

// TestLayout pins the one function that maps (levels, fine kind,
// precision) to the coupled matvec's kind and every level's: the rows are
// what the DefaultLevelKinds ∘ levelKind composition it replaced returned
// (with stokes.New's galerkin → asm + all-Galerkin mapping in front), so a
// hierarchy built from it is the one that composition built.
func TestLayout(t *testing.T) {
	for _, tc := range []struct {
		levels         int
		fine, prec     string
		coupled, kinds string
	}{
		{1, "mfc", "f64", "mfc", "[mfc]"},
		{2, "mfc", "f64", "mfc", "[mfc asm]"},
		{3, "mfc", "f64", "mfc", "[mfc mfc galerkin]"},
		{4, "mfc", "f64", "mfc", "[mfc mfc galerkin galerkin]"},
		{1, "mfc", "f32", "mfc", "[mfc]"},
		{2, "mfc", "f32", "mfc", "[mf32 asm]"},
		{3, "mfc", "f32", "mfc", "[mf32 mf32 galerkin]"},
		{4, "mfc", "f32", "mfc", "[mf32 mf32 galerkin galerkin]"},
		{1, "mf", "f64", "mf", "[mf]"},
		{2, "mf", "f64", "mf", "[mf asm]"},
		{3, "mf", "f64", "mf", "[mf asm galerkin]"},
		{4, "mf", "f64", "mf", "[mf asm galerkin galerkin]"},
		{1, "mf", "f32", "mf", "[mf]"},
		{2, "mf", "f32", "mf", "[mf32 asm]"},
		{3, "mf", "f32", "mf", "[mf32 asm32 galerkin]"},
		{4, "mf", "f32", "mf", "[mf32 asm32 galerkin galerkin]"},
		{1, "mfref", "f64", "mfref", "[mfref]"},
		{2, "mfref", "f64", "mfref", "[mfref asm]"},
		{3, "mfref", "f64", "mfref", "[mfref asm galerkin]"},
		{4, "mfref", "f64", "mfref", "[mfref asm galerkin galerkin]"},
		{1, "mfref", "f32", "mfref", "[mfref]"},
		{2, "mfref", "f32", "mfref", "[mf32 asm]"},
		{3, "mfref", "f32", "mfref", "[mf32 asm32 galerkin]"},
		{4, "mfref", "f32", "mfref", "[mf32 asm32 galerkin galerkin]"},
		{1, "asm", "f64", "asm", "[asm]"},
		{2, "asm", "f64", "asm", "[asm asm]"},
		{3, "asm", "f64", "asm", "[asm asm galerkin]"},
		{4, "asm", "f64", "asm", "[asm asm galerkin galerkin]"},
		{1, "asm", "f32", "asm", "[asm]"},
		{2, "asm", "f32", "asm", "[asm32 asm]"},
		{3, "asm", "f32", "asm", "[asm32 asm32 galerkin]"},
		{4, "asm", "f32", "asm", "[asm32 asm32 galerkin galerkin]"},
		{1, "galerkin", "f64", "asm", "[asm]"},
		{2, "galerkin", "f64", "asm", "[asm galerkin]"},
		{3, "galerkin", "f64", "asm", "[asm galerkin galerkin]"},
		{4, "galerkin", "f64", "asm", "[asm galerkin galerkin galerkin]"},
		{1, "galerkin", "f32", "asm", "[asm]"},
		{2, "galerkin", "f32", "asm", "[asm32 galerkin]"},
		{3, "galerkin", "f32", "asm", "[asm32 galerkin galerkin]"},
		{4, "galerkin", "f32", "asm", "[asm32 galerkin galerkin galerkin]"},
	} {
		fine, err := op.ParseKind(tc.fine)
		if err != nil {
			t.Fatal(err)
		}
		prec, err := op.ParsePrecision(tc.prec)
		if err != nil {
			t.Fatal(err)
		}
		coupled, kinds, err := op.Layout(tc.levels, fine, prec)
		if err != nil {
			t.Errorf("Layout(%d, %s, %s): %v", tc.levels, tc.fine, tc.prec, err)
			continue
		}
		if got := fmt.Sprint(kinds); coupled.String() != tc.coupled || got != tc.kinds {
			t.Errorf("Layout(%d, %s, %s) = %v, %s; want %s, %s",
				tc.levels, tc.fine, tc.prec, coupled, got, tc.coupled, tc.kinds)
		}
	}
	// A reduced-precision fine kind would run the coupled matvec, not just
	// the preconditioner, in single precision: rejected, pointing at the
	// precision axis.
	for _, fine := range []op.Kind{op.TensorF32, op.AssembledF32} {
		for _, prec := range []op.Precision{op.F64, op.F32} {
			_, _, err := op.Layout(3, fine, prec)
			if err == nil || !strings.Contains(err.Error(), "-precision f32") ||
				!strings.Contains(err.Error(), `"precision": "f32"`) {
				t.Errorf("Layout(3, %v, %v) = %v; want a rejection naming -precision f32 and \"precision\": \"f32\"", fine, prec, err)
			}
		}
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
// expose their fem.Resident, and non-resident kinds return nil.
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
