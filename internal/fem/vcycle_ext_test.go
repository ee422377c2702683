package fem_test

import (
	"math/rand"
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
)

// TestVCycleBothKernels is mg's TestMGBlockedVCycleBitIdentical seen from
// the kernel's side (the hook that switches the encoding is this
// package's, so the test lives here, in the external test package that may
// import mg): the default-layout V(2,2) cycle on the 8³ hierarchy — resident
// blocked smoothing on two levels — must give the same recorded bits with
// the vector encoding on and off, at 1 and 3 workers.
func TestVCycleBothKernels(t *testing.T) {
	eta := func(x, y, z float64) float64 { return 1 + 8*x*z + 3*y }
	fem.BothKernels(t, 0x9999618139be2cf7, func(t *testing.T) uint64 {
		hash := comm.HashSeed
		for _, workers := range []int{1, 3} {
			da := mesh.New(8, 8, 8, 0, 1, 0, 1, 0, 1)
			bc := mesh.NewBC(da)
			bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax)
			fine := fem.NewProblem(da, bc)
			fine.SetCoefficientsFunc(eta, nil)
			probs := mg.CoarsenProblems(fine, 3, mg.FuncCoeffCoarsener(eta, nil))
			_, kinds, err := op.Layout(3, op.TensorC, op.F64)
			if err != nil {
				t.Fatal(err)
			}
			cycle, err := mg.Build(probs, mg.Options{Kinds: kinds, SmoothSteps: 2, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := cycle.UseBlockJacobiCoarse(1); err != nil {
				t.Fatal(err)
			}
			n := cycle.Levels[0].Op.N()
			rng := rand.New(rand.NewSource(19))
			b, z := la.NewVec(n), la.NewVec(n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			cycle.Apply(b, z)
			hash = comm.HashFloats(hash, z)
		}
		return hash
	})
}
