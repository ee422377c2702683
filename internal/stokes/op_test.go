package stokes

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/op"
)

// TestResidualIsTheTensorKernel: Op.Residual evaluates the viscous block
// with the problem's tensor kernel whatever Auu is, so over Auu of every
// kind a solver's coupled matvec runs (mf, mfc, mfref, asm) it gives the
// bits of the residual evaluated with fem.TensorOp directly, on a
// boundary-valued random state with a heterogeneous viscosity.
func TestResidualIsTheTensorKernel(t *testing.T) {
	da := mesh.New(4, 3, 4, 0, 1.5, 0, 1, 0, 1)
	bc := mesh.NewBC(da)
	bc.SetFaceComponent(da, mesh.XMin, 0, -1)
	bc.SetFaceComponent(da, mesh.XMax, 0, +1)
	bc.FreeSlipBox(da, mesh.YMin, mesh.YMax, mesh.ZMin)
	p := fem.NewProblem(da, bc)
	rng := rand.New(rand.NewSource(52))
	for i := range p.Eta {
		p.Eta[i] = math.Exp(3 * rng.NormFloat64())
	}
	c := p.Coupling()

	nu := da.NVelDOF()
	x, bu := la.NewVec(nu+da.NPresDOF()), la.NewVec(nu)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range bu {
		bu[i] = rng.NormFloat64()
	}
	bc.ApplyToVec(x[:nu])

	want := la.NewVec(len(x))
	wu, wp := want[:nu], want[nu:]
	fem.NewTensor(p).ApplyFreeRows(x[:nu], wu)
	c.ApplyGDRaw(x[:nu], x[nu:], wu, wp)
	for d, m := range bc.Mask {
		if m {
			wu[d] = 0
		} else {
			wu[d] -= bu[d]
		}
	}
	for _, k := range []op.Kind{op.Tensor, op.TensorC, op.MFRef, op.Assembled} {
		auu, err := op.New(k, op.Env{Prob: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := auu.Setup(); err != nil {
			t.Fatal(err)
		}
		got := la.NewVec(len(x))
		NewOp(p, auu, c).Residual(x, bu, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Auu %v: residual entry %d = %v, the tensor kernel's %v", k, i, got[i], want[i])
			}
		}
	}
}
