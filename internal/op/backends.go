package op

import (
	"fmt"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/perfmodel"
)

// reproCounts looks up this implementation's analytic per-element counts
// by Table-I name.
func reproCounts(name string) perfmodel.OpCounts {
	for _, c := range perfmodel.ReproCounts() {
		if c.Name == name {
			return c
		}
	}
	return perfmodel.OpCounts{Name: name}
}

// mfCost scales per-element apply counts to the whole mesh and adds the
// slab-scatter boundary merge traffic (overlap buffers for slab-shared
// nodes); matrix-free kernels have no setup work and no assembled storage.
func mfCost(name string, p *fem.Problem) Cost {
	c := reproCounts(name)
	nel := p.DA.NElements()
	_, shared, _ := p.SlabStats()
	return Cost{
		ApplyFlops: c.Flops * float64(nel),
		ApplyBytes: c.BytesPessimal*float64(nel) + perfmodel.SlabMergeBytes(shared),
	}
}

// asmCost combines the assembly setup estimate with the CSR apply cost.
// When the matrix exists the apply cost uses the true nonzero count
// (2 flops and 16 bytes per stored value+index); beforehand it falls
// back to the analytic ~4608 nnz/element estimate.
func asmCost(nel int, a *la.CSR) Cost {
	setup := perfmodel.AssemblySetupCounts()
	c := Cost{
		SetupFlops: setup.Flops * float64(nel),
		SetupBytes: setup.BytesPessimal * float64(nel),
	}
	if a != nil {
		nnz := float64(len(a.Val))
		c.ApplyFlops = 2 * nnz
		c.ApplyBytes = 16*nnz + 24*float64(a.NRows)
		c.StorageBytes = 16*nnz + 8*float64(a.NRows+1)
	} else {
		est := reproCounts("Assembled")
		c.ApplyFlops = est.Flops * float64(nel)
		c.ApplyBytes = est.BytesPessimal * float64(nel)
		c.StorageBytes = est.BytesPessimal * float64(nel)
	}
	return c
}

// csrDiag extracts the diagonal of an assembled operator, patching the
// zero entries structurally-empty rows would otherwise hand the Jacobi
// smoother.
func csrDiag(a *la.CSR, d la.Vec) {
	a.Diag(d)
	for i, v := range d {
		if v == 0 {
			d[i] = 1
		}
	}
}

// tensorOp wraps the tensor-product matrix-free kernel.
type tensorOp struct {
	k *fem.TensorOp
	p *fem.Problem
}

func (o *tensorOp) N() int                    { return o.k.N() }
func (o *tensorOp) Apply(x, y la.Vec)         { o.k.Apply(x, y) }
func (o *tensorOp) ApplyFreeRows(u, y la.Vec) { o.k.ApplyFreeRows(u, y) }
func (o *tensorOp) Setup() error              { return nil }
func (o *tensorOp) Diag(d la.Vec)             { fem.Diagonal(o.p, d) }
func (o *tensorOp) Cost() Cost                { return mfCost("Tensor", o.p) }
func (o *tensorOp) Kind() Kind                { return Tensor }
func (o *tensorOp) CSR() *la.CSR              { return nil }

// mfrefOp wraps the reference (non-tensor) matrix-free kernel.
type mfrefOp struct {
	k *fem.MFOp
	p *fem.Problem
}

func (o *mfrefOp) N() int                    { return o.k.N() }
func (o *mfrefOp) Apply(x, y la.Vec)         { o.k.Apply(x, y) }
func (o *mfrefOp) ApplyFreeRows(u, y la.Vec) { o.k.ApplyFreeRows(u, y) }
func (o *mfrefOp) Setup() error              { return nil }
func (o *mfrefOp) Diag(d la.Vec)             { fem.Diagonal(o.p, d) }
func (o *mfrefOp) Cost() Cost                { return mfCost("Matrix-free", o.p) }
func (o *mfrefOp) Kind() Kind                { return MFRef }
func (o *mfrefOp) CSR() *la.CSR              { return nil }

// asmOp rediscretizes the operator into CSR and applies it by the shared
// row-parallel SpMV. A tensor matrix-free twin provides ApplyFreeRows:
// the assembled matrix drops constrained columns, so it cannot evaluate
// residuals of boundary-valued states.
type asmOp struct {
	p       *fem.Problem
	workers int
	mf      *fem.TensorOp
	va      *fem.ViscousAssembly
	a       *la.CSR
}

func (o *asmOp) N() int { return o.p.DA.NVelDOF() }

func (o *asmOp) Setup() error {
	if o.a == nil {
		o.va = fem.NewViscousAssembly(o.p)
		o.va.Refresh()
		o.a = o.va.A
	}
	return nil
}

// Refresh recomputes the CSR values in place from the problem's current
// coefficients, reusing the cached sparsity.
func (o *asmOp) Refresh() error {
	if o.a == nil {
		return o.Setup()
	}
	o.va.Refresh()
	return nil
}

func (o *asmOp) Apply(x, y la.Vec) {
	if o.a == nil {
		o.Setup()
	}
	o.a.MulVecPar(x, y, o.workers)
}

func (o *asmOp) ApplyFreeRows(u, y la.Vec) { o.mf.ApplyFreeRows(u, y) }

func (o *asmOp) Diag(d la.Vec) {
	if o.a == nil {
		o.Setup()
	}
	csrDiag(o.a, d)
}

func (o *asmOp) Cost() Cost   { return asmCost(o.p.DA.NElements(), o.a) }
func (o *asmOp) Kind() Kind   { return Assembled }
func (o *asmOp) CSR() *la.CSR { o.Setup(); return o.a }

// galerkinOp builds the CSR operator as the Galerkin triple product
// Pᵀ·A_fine·P of the next-finer level's assembled matrix. The symbolic
// structure of the product (and of the constrained-diagonal augmentation)
// depends only on the sparsity patterns, so it is cached at Setup and the
// values are replayed in place by Refresh — bit-identical to a rebuild.
type galerkinOp struct {
	env Env
	a   *la.CSR

	// Cached triple-product state for the in-place numeric refresh.
	fine     *la.CSR // finer-level matrix the symbolics were derived from
	p, pt    *la.CSR // prolongation and its transpose (values constant)
	ap, raw  *la.CSR // A_fine·P and Pᵀ·(A_fine·P) in fixed sparsity
	rebuilt  bool    // augmentation rebuilt the pattern (Builder path)
	rawToAug []int   // raw entry k → position in a.Val (-1 = dropped zero)
	augDiag  []int   // positions in a.Val of constrained-row unit diagonals
}

func newGalerkinOp(env Env) (Operator, error) {
	if env.FineCSR == nil || env.Prolong == nil {
		return nil, fmt.Errorf("op: Galerkin requires hierarchy context (FineCSR/Prolong)")
	}
	return &galerkinOp{env: env}, nil
}

func (o *galerkinOp) N() int { return o.env.Prob.DA.NVelDOF() }

func (o *galerkinOp) Setup() error {
	if o.a != nil {
		return nil
	}
	fine := o.env.FineCSR()
	if fine == nil {
		return fmt.Errorf("op: Galerkin requires an assembled finer level")
	}
	o.build(fine)
	return nil
}

// build runs the full symbolic+numeric construction from fine.
func (o *galerkinOp) build(fine *la.CSR) {
	o.fine = fine
	o.p = o.env.Prolong()
	o.pt = o.p.Transpose()
	o.ap = la.MatMul(fine, o.p)
	o.raw = la.MatMul(o.pt, o.ap)
	o.augment()
}

// Refresh replays the triple product numerically into the cached
// sparsity. The scatter order matches MatMul exactly (la.MatMulNumeric),
// so the values are bit-for-bit what a from-scratch Setup would produce.
func (o *galerkinOp) Refresh() error {
	if o.a == nil {
		return o.Setup()
	}
	fine := o.env.FineCSR()
	if fine == nil {
		return fmt.Errorf("op: Galerkin requires an assembled finer level")
	}
	if fine != o.fine {
		// The finer level handed over a different matrix object (its own
		// pattern changed); the cached symbolics no longer apply.
		o.build(fine)
		return nil
	}
	la.MatMulNumeric(fine, o.p, o.ap)
	la.MatMulNumeric(o.pt, o.ap, o.raw)
	if o.rebuilt && !o.zeroPatternUnchanged() {
		// A structural zero changed state; a cold augmentation would
		// produce a different pattern, so redo it (rare).
		o.augment()
	} else if o.rebuilt {
		for k, pos := range o.rawToAug {
			if pos >= 0 {
				o.a.Val[pos] = o.raw.Val[k]
			}
		}
		for _, pos := range o.augDiag {
			o.a.Val[pos] = 1
		}
	} else {
		copy(o.a.Val, o.raw.Val)
		for _, pos := range o.augDiag {
			o.a.Val[pos] = 1
		}
	}
	return nil
}

// augment derives the served matrix from raw: a unit diagonal on
// constrained rows (the transfer operators drop Dirichlet-constrained
// dofs, so the triple product leaves them empty), via a Builder rebuild
// when a constrained diagonal is structurally missing, while recording
// the raw→augmented value mapping for later refreshes.
func (o *galerkinOp) augment() {
	mask := o.env.Prob.BC.Mask
	raw := o.raw
	missing := false
	for r := 0; r < raw.NRows && !missing; r++ {
		if !mask[r] {
			continue
		}
		found := false
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			if raw.ColInd[k] == r {
				found = true
				break
			}
		}
		missing = !found
	}
	o.augDiag = o.augDiag[:0]
	if !missing {
		// In-place path: pattern unchanged, identity value mapping.
		o.a = raw.Clone()
		o.rebuilt = false
		o.rawToAug = nil
		for r := 0; r < raw.NRows; r++ {
			if !mask[r] {
				continue
			}
			for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
				if raw.ColInd[k] == r {
					o.a.Val[k] = 1
					o.augDiag = append(o.augDiag, k)
					break
				}
			}
		}
		return
	}
	// Rebuild path, Builder semantics: only nonzero raw entries survive,
	// constrained rows gain a unit diagonal.
	b := la.NewBuilder(raw.NRows, raw.NCols)
	for r := 0; r < raw.NRows; r++ {
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			b.Add(r, raw.ColInd[k], raw.Val[k])
		}
		if mask[r] {
			b.Set(r, r, 1)
		}
	}
	a := b.ToCSR()
	o.a = a
	o.rebuilt = true
	// Per-row sorted merge gives each raw entry its slot in a (or -1 for
	// entries the zero-skipping Add dropped), and each constrained row its
	// diagonal position.
	o.rawToAug = make([]int, raw.NNZ())
	for r := 0; r < raw.NRows; r++ {
		ka := a.RowPtr[r]
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			j := raw.ColInd[k]
			for ka < a.RowPtr[r+1] && a.ColInd[ka] < j {
				ka++
			}
			if ka < a.RowPtr[r+1] && a.ColInd[ka] == j {
				o.rawToAug[k] = ka
			} else {
				o.rawToAug[k] = -1
			}
		}
		if mask[r] {
			for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
				if a.ColInd[k] == r {
					o.augDiag = append(o.augDiag, k)
					break
				}
			}
		}
	}
}

// zeroPatternUnchanged reports whether the refreshed raw values would
// yield the same augmented pattern as the cached one: every dropped entry
// is still exactly zero and every kept entry is still nonzero (the
// constrained diagonals are kept regardless of value).
func (o *galerkinOp) zeroPatternUnchanged() bool {
	mask := o.env.Prob.BC.Mask
	raw := o.raw
	for r := 0; r < raw.NRows; r++ {
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			z := raw.Val[k] == 0
			if o.rawToAug[k] < 0 {
				if !z {
					return false
				}
			} else if z && !(mask[r] && raw.ColInd[k] == r) {
				return false
			}
		}
	}
	return true
}

func (o *galerkinOp) Apply(x, y la.Vec) {
	if o.a == nil {
		if err := o.Setup(); err != nil {
			panic(err)
		}
	}
	o.a.MulVecPar(x, y, o.env.Workers)
}

func (o *galerkinOp) Diag(d la.Vec) {
	if o.a == nil {
		if err := o.Setup(); err != nil {
			panic(err)
		}
	}
	csrDiag(o.a, d)
}

func (o *galerkinOp) Cost() Cost {
	c := asmCost(o.env.Prob.DA.NElements(), o.a)
	// The triple product streams the finer matrix twice (A·P, then
	// Pᵀ·(A·P)); charge it as two assembly-scale passes.
	c.SetupFlops *= 2
	c.SetupBytes *= 2
	return c
}

func (o *galerkinOp) Kind() Kind   { return Galerkin }
func (o *galerkinOp) CSR() *la.CSR { _ = o.Setup(); return o.a }
