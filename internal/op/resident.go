package op

import (
	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/perfmodel"
)

// ResidentBacked is implemented by operators whose apply is backed by a
// fem.Resident. The cache-blocked smoother and the fused distributed halo
// path need the underlying resident machinery (per-block applies, stored
// coefficients), not just the Operator surface.
type ResidentBacked interface {
	Resident() *fem.Resident
}

// ResidentOf returns an operator's fem.Resident backing, or nil for
// non-resident representations.
func ResidentOf(o Operator) *fem.Resident {
	if v, ok := o.(ResidentBacked); ok {
		return v.Resident()
	}
	return nil
}

// ElementKernel returns the per-element form of a viscous operator on
// prob, what a rank applies over its own elements: the resident backing
// when there is one — the same stored tensors the shared apply streams —
// else the operator itself when it applies element subsets (fem.NewtonOp,
// fem.TensorOp), else the tensor kernel of the problem (an assembled or
// wrapped operator: the ranks apply it matrix-free).
func ElementKernel(a krylov.Op, prob *fem.Problem) comm.ElementKernel {
	if rb, ok := a.(ResidentBacked); ok {
		return rb.Resident()
	}
	if k, ok := a.(comm.ElementKernel); ok {
		return k
	}
	return fem.NewTensor(prob)
}

// residentCost scales the stored-coefficient per-element counts to the
// whole mesh and adds the slab boundary-merge traffic.
func residentCost(p *fem.Problem, f32 bool) Cost {
	c := perfmodel.ResidentCounts(f32)
	nel := float64(p.DA.NElements())
	_, shared, _ := p.SlabStats()
	return Cost{
		ApplyFlops: c.Flops * nel,
		ApplyBytes: c.BytesPessimal*nel + perfmodel.SlabMergeBytes(shared),
	}
}

// residentOp wraps the stored-coefficient resident kernel: TensorC
// (float64), and TensorF32 (float32 coefficients and element arithmetic)
// for the kernel study. Like asmOp, the one-time coefficient precompute
// is Setup's. It keeps no matrix: a Galerkin level below it streams its
// product from the problem's element matrices.
type residentOp struct {
	p   *fem.Problem
	f32 bool
	r   *fem.Resident
}

func newResidentOp(env Env, f32 bool) *residentOp {
	return &residentOp{p: env.Prob, f32: f32}
}

func (o *residentOp) N() int { return o.p.DA.NVelDOF() }

func (o *residentOp) Setup() error {
	if o.r == nil {
		o.r = fem.NewResident(o.p, o.f32)
	}
	return nil
}

func (o *residentOp) Apply(x, y la.Vec) { o.r.Apply(x, y) }

// Refresh recomputes the stored coefficient tensors from the problem's
// current coefficients and coordinates (Resident.Setup re-runs in place).
func (o *residentOp) Refresh() error {
	o.r.Setup()
	return nil
}

func (o *residentOp) Diag(d la.Vec) { fem.Diagonal(o.p, d) }
func (o *residentOp) Cost() Cost    { return residentCost(o.p, o.f32) }

func (o *residentOp) Kind() Kind {
	if o.f32 {
		return TensorF32
	}
	return TensorC
}

func (o *residentOp) CSR() *la.CSR { return nil }

// Resident exposes the backing kernel (nil before Setup).
func (o *residentOp) Resident() *fem.Resident { return o.r }
