package thermal_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/thermal"
)

// TestKeptSystemMatchesBuilder: on the rift at its small resolution, the
// system the thermal solver refills in its kept matrix, step after step,
// is bitwise the one the triplet builder assembles from nothing — pattern,
// values and right-hand side — and the kept matrix stays the one
// storage. A changed Dirichlet mask derives the pattern again, still the
// builder's.
func TestKeptSystemMatchesBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the rift model")
	}
	spec, err := scenario.Get("rift")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, a *la.CSR, rhs la.Vec, wantA *la.CSR, wantRHS la.Vec) {
		t.Helper()
		if a.NRows != wantA.NRows || !slices.Equal(a.RowPtr, wantA.RowPtr) || !slices.Equal(a.ColInd, wantA.ColInd) {
			t.Fatalf("%s: the kept pattern is not the builder's", what)
		}
		for k, v := range wantA.Val {
			if math.Float64bits(a.Val[k]) != math.Float64bits(v) {
				t.Fatalf("%s: entry %d = %v, builder %v", what, k, a.Val[k], v)
			}
		}
		for i, v := range wantRHS {
			if math.Float64bits(rhs[i]) != math.Float64bits(v) {
				t.Fatalf("%s: rhs[%d] = %v, builder %v", what, i, rhs[i], v)
			}
		}
	}
	var kept *la.CSR
	for step := 0; step < 3; step++ {
		if err := m.StepForward(); err != nil {
			t.Fatal(err)
		}
		u, dt := m.X[:m.Prob.DA.NVelDOF()], m.Stats[len(m.Stats)-1].Dt
		a, rhs := thermal.Assemble(m.T, m.Temp, u, dt)
		wantA, wantRHS := thermal.BuilderAssemble(m.T, m.Temp, u, dt)
		same(fmt.Sprintf("step %d", step+1), a, rhs, wantA, wantRHS)
		if kept != nil && a != kept {
			t.Fatalf("step %d: the kept matrix was replaced", step+1)
		}
		kept = a
	}
	m.T.SetFaceTemperature(mesh.XMin, 0.5)
	u, dt := m.X[:m.Prob.DA.NVelDOF()], m.Stats[len(m.Stats)-1].Dt
	a, rhs := thermal.Assemble(m.T, m.Temp, u, dt)
	wantA, wantRHS := thermal.BuilderAssemble(m.T, m.Temp, u, dt)
	same("new mask", a, rhs, wantA, wantRHS)
	if a.NNZ() >= kept.NNZ() {
		t.Fatalf("a Dirichlet face more kept %d entries of %d", a.NNZ(), kept.NNZ())
	}
}
