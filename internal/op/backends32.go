package op

import (
	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
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
func ElementKernel(a fem.Operator, prob *fem.Problem) comm.ElementKernel {
	if rb, ok := a.(ResidentBacked); ok {
		return rb.Resident()
	}
	if k, ok := a.(comm.ElementKernel); ok {
		return k
	}
	return fem.NewTensor(prob)
}

// residentCost scales the stored-coefficient per-element counts to the
// whole mesh, adds the slab boundary-merge traffic, and charges the
// coefficient precompute as setup: a streaming pass that reads the
// problem's metric store (inverse Jacobian and detJ, 10 floats per
// quadrature point) and the viscosity, and writes the 15-float-per-qp
// tensor stream — about 48 flops per point (the scale, six metric
// products of six flops, a square root, nine scalings), no coordinate
// gather and no Jacobian inversion.
func residentCost(p *fem.Problem, f32 bool) Cost {
	c := perfmodel.ResidentCounts(f32)
	nel := float64(p.DA.NElements())
	_, shared, _ := p.SlabStats()
	metricB := (10.0 + 1) * 27 * 8
	coefW := 15.0 * 27 * 8
	if f32 {
		coefW = 15 * 27 * 4
	}
	return Cost{
		SetupFlops:   48 * 27 * nel,
		SetupBytes:   (metricB + coefW) * nel,
		ApplyFlops:   c.Flops * nel,
		ApplyBytes:   c.BytesPessimal*nel + perfmodel.SlabMergeBytes(shared),
		StorageBytes: coefW * nel,
	}
}

// residentOp wraps the stored-coefficient resident kernel at either
// precision: TensorC (float64) and TensorF32 (float32 coefficients and
// element arithmetic). Like asmOp, the one-time coefficient precompute is
// deferred to Setup. A tensor matrix-free twin provides ApplyFreeRows —
// residual evaluation stays full precision regardless of the
// preconditioner's width, as in the paper's matrix-free residuals.
//
// With Env.GalerkinInput the level's float64 assembled matrix is built
// and refreshed alongside and handed off through CSR(), as asm32Op hands
// off its float64 matrix; Apply never touches it.
type residentOp struct {
	p       *fem.Problem
	f32     bool
	handoff bool // Env.GalerkinInput
	mf      *fem.TensorOp
	r       *fem.Resident
	va      *fem.ViscousAssembly // the Galerkin input; nil without handoff
}

func newResidentOp(env Env, f32 bool) *residentOp {
	return &residentOp{p: env.Prob, f32: f32, handoff: env.GalerkinInput, mf: fem.NewTensor(env.Prob)}
}

func (o *residentOp) N() int { return o.p.DA.NVelDOF() }

func (o *residentOp) Setup() error {
	if o.r == nil {
		o.r = fem.NewResident(o.p, o.f32)
		if o.handoff {
			o.va = fem.NewViscousAssembly(o.p)
			o.va.Refresh()
		}
	}
	return nil
}

func (o *residentOp) Apply(x, y la.Vec) {
	if o.r == nil {
		o.Setup()
	}
	o.r.Apply(x, y)
}

// Refresh recomputes the stored coefficient tensors from the problem's
// current coefficients and coordinates (Resident.Setup re-runs in place).
func (o *residentOp) Refresh() error {
	if o.r == nil {
		return o.Setup()
	}
	o.r.Setup()
	if o.va != nil {
		o.va.Refresh()
	}
	return nil
}

func (o *residentOp) ApplyFreeRows(u, y la.Vec) { o.mf.ApplyFreeRows(u, y) }
func (o *residentOp) Diag(d la.Vec)             { fem.Diagonal(o.p, d) }
func (o *residentOp) Cost() Cost                { return residentCost(o.p, o.f32) }

func (o *residentOp) Kind() Kind {
	if o.f32 {
		return TensorF32
	}
	return TensorC
}

// CSR returns the Galerkin-input matrix (nil unless Env.GalerkinInput).
func (o *residentOp) CSR() *la.CSR {
	if !o.handoff {
		return nil
	}
	o.Setup()
	return o.va.A
}

// Resident exposes the backing kernel (nil before Setup is forced).
func (o *residentOp) Resident() *fem.Resident {
	o.Setup()
	return o.r
}

// asm32Cost is asmCost with the single-precision value stream: 12 bytes
// per stored value+index (4-byte value, 8-byte column index) instead of
// 16. The float64 matrix is retained for coarse-solver handoff, so it
// stays in the storage footprint.
func asm32Cost(nel int, a *la.CSR32, a64 *la.CSR) Cost {
	setup := perfmodel.AssemblySetupCounts()
	c := Cost{
		SetupFlops: setup.Flops * float64(nel),
		SetupBytes: setup.BytesPessimal * float64(nel),
	}
	if a != nil {
		nnz := float64(a.NNZ())
		c.ApplyFlops = 2 * nnz
		c.ApplyBytes = 12*nnz + 24*float64(a.NRows)
		c.StorageBytes = 12*nnz + 8*float64(a.NRows+1)
		if a64 != nil {
			c.StorageBytes += 8 * float64(len(a64.Val))
		}
	} else {
		est := reproCounts("Assembled")
		c.ApplyFlops = est.Flops * float64(nel)
		c.ApplyBytes = est.BytesPessimal * float64(nel) * 12.0 / 16.0
		c.StorageBytes = est.BytesPessimal * float64(nel)
	}
	return c
}

// asm32Op rediscretizes into CSR and applies the float32 value stream
// with float64 row accumulation. The float64 matrix is kept: CSR() hands
// it to coarse solvers and Galerkin products, which must not compound
// single-precision rounding through triple products.
type asm32Op struct {
	p       *fem.Problem
	workers int
	mf      *fem.TensorOp
	va      *fem.ViscousAssembly
	a64     *la.CSR
	a32     *la.CSR32
}

func (o *asm32Op) N() int { return o.p.DA.NVelDOF() }

func (o *asm32Op) Setup() error {
	if o.a32 == nil {
		o.va = fem.NewViscousAssembly(o.p)
		o.va.Refresh()
		o.a64 = o.va.A
		o.a32 = la.NewCSR32(o.a64)
	}
	return nil
}

// Refresh recomputes the float64 values in the cached sparsity and
// re-rounds them into the aliased float32 value stream.
func (o *asm32Op) Refresh() error {
	if o.a32 == nil {
		return o.Setup()
	}
	o.va.Refresh()
	for i, v := range o.a64.Val {
		o.a32.Val32[i] = float32(v)
	}
	return nil
}

func (o *asm32Op) Apply(x, y la.Vec) {
	if o.a32 == nil {
		o.Setup()
	}
	o.a32.MulVecPar(x, y, o.workers)
}

func (o *asm32Op) ApplyFreeRows(u, y la.Vec) { o.mf.ApplyFreeRows(u, y) }

func (o *asm32Op) Diag(d la.Vec) {
	if o.a64 == nil {
		o.Setup()
	}
	csrDiag(o.a64, d)
}

func (o *asm32Op) Cost() Cost   { return asm32Cost(o.p.DA.NElements(), o.a32, o.a64) }
func (o *asm32Op) Kind() Kind   { return AssembledF32 }
func (o *asm32Op) CSR() *la.CSR { o.Setup(); return o.a64 }
