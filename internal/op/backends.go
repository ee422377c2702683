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
// nodes).
func mfCost(name string, p *fem.Problem) Cost {
	c := reproCounts(name)
	nel := p.DA.NElements()
	_, shared, _ := p.SlabStats()
	return Cost{
		ApplyFlops: c.Flops * float64(nel),
		ApplyBytes: c.BytesPessimal*float64(nel) + perfmodel.SlabMergeBytes(shared),
	}
}

// asmCost is the CSR apply cost: 2 flops and 16 bytes per stored
// value+index plus the vectors once the matrix exists, the analytic
// ~4608 nnz/element estimate before.
func asmCost(nel int, a *la.CSR) Cost {
	if a == nil {
		est := reproCounts("Assembled")
		return Cost{ApplyFlops: est.Flops * float64(nel), ApplyBytes: est.BytesPessimal * float64(nel)}
	}
	nnz := float64(len(a.Val))
	return Cost{ApplyFlops: 2 * nnz, ApplyBytes: 16*nnz + 24*float64(a.NRows)}
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

func (o *tensorOp) N() int            { return o.k.N() }
func (o *tensorOp) Apply(x, y la.Vec) { o.k.Apply(x, y) }
func (o *tensorOp) Setup() error      { return nil }
func (o *tensorOp) Refresh() error    { return nil }
func (o *tensorOp) Diag(d la.Vec)     { fem.Diagonal(o.p, d) }
func (o *tensorOp) Cost() Cost        { return mfCost("Tensor", o.p) }
func (o *tensorOp) Kind() Kind        { return Tensor }
func (o *tensorOp) CSR() *la.CSR      { return nil }

// mfrefOp wraps the reference (non-tensor) matrix-free kernel.
type mfrefOp struct {
	k *fem.MFOp
	p *fem.Problem
}

func (o *mfrefOp) N() int            { return o.k.N() }
func (o *mfrefOp) Apply(x, y la.Vec) { o.k.Apply(x, y) }
func (o *mfrefOp) Setup() error      { return nil }
func (o *mfrefOp) Refresh() error    { return nil }
func (o *mfrefOp) Diag(d la.Vec)     { fem.Diagonal(o.p, d) }
func (o *mfrefOp) Cost() Cost        { return mfCost("Matrix-free", o.p) }
func (o *mfrefOp) Kind() Kind        { return MFRef }
func (o *mfrefOp) CSR() *la.CSR      { return nil }

// asmOp rediscretizes the operator into CSR and applies it by the shared
// row-parallel SpMV.
type asmOp struct {
	p       *fem.Problem
	workers int
	va      *fem.ViscousAssembly
	a       *la.CSR
}

func (o *asmOp) N() int { return o.p.DA.NVelDOF() }

func (o *asmOp) Setup() error {
	if o.a == nil {
		o.va = fem.NewViscousAssembly(o.p)
		o.a = o.va.A
	}
	return nil
}

// Refresh recomputes the CSR values in place from the problem's current
// coefficients, reusing the cached sparsity.
func (o *asmOp) Refresh() error {
	o.va.Refresh()
	return nil
}

func (o *asmOp) Apply(x, y la.Vec) { o.a.MulVecPar(x, y, o.workers) }
func (o *asmOp) Diag(d la.Vec)     { csrDiag(o.a, d) }
func (o *asmOp) Cost() Cost        { return asmCost(o.p.DA.NElements(), o.a) }
func (o *asmOp) Kind() Kind        { return Assembled }
func (o *asmOp) CSR() *la.CSR      { return o.a }

// galerkinOp builds the CSR operator as the Galerkin triple product
// Pᵀ·A_fine·P. A·P comes from the next-finer level's assembled matrix
// when that level keeps one (asm, galerkin), and otherwise is streamed
// from the finer problem's element matrices (fem.NewViscousAP), bit for bit
// the same product, so a matrix-free finer level never holds a matrix.
// The symbolic structure of the product (and of the constrained-diagonal
// augmentation) depends only on the sparsity patterns, so it is cached at
// Setup and the values are replayed in place by Refresh — bit-identical
// to a rebuild.
type galerkinOp struct {
	env Env
	a   *la.CSR

	// Cached triple-product state for the in-place numeric refresh.
	fine     *la.CSR              // finer-level matrix the symbolics were derived from
	stream   *fem.ViscousAssembly // A_fine·P from element matrices; nil with fine
	p, pt    *la.CSR              // prolongation and its transpose (values constant)
	ap, raw  *la.CSR              // A_fine·P and Pᵀ·(A_fine·P) in fixed sparsity
	rawToAug []int                // raw entry k → position in a.Val (-1 = dropped zero)
	augDiag  []int                // positions in a.Val of constrained-row unit diagonals
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
	return o.build(o.env.FineCSR())
}

// build runs the full symbolic+numeric construction from fine, or from
// the finer problem's element matrices when fine is nil.
func (o *galerkinOp) build(fine *la.CSR) error {
	o.p = o.env.Prolong()
	o.fine, o.stream = fine, nil
	switch {
	case fine != nil:
		o.ap = la.MatMul(fine, o.p)
	case o.env.FineProb != nil:
		s, err := fem.NewViscousAP(o.env.FineProb, o.p)
		if err != nil {
			return fmt.Errorf("op: Galerkin: %w", err)
		}
		o.stream, o.ap = s, s.A
	default:
		return fmt.Errorf("op: Galerkin requires an assembled finer level or its problem")
	}
	o.pt = o.p.Transpose()
	o.raw = la.MatMul(o.pt, o.ap)
	o.augment()
	return nil
}

// Refresh replays the triple product numerically into the cached
// sparsity. The scatter order matches MatMul exactly (la.MatMulNumeric,
// fem.NewViscousAP), so the values are bit-for-bit what a from-scratch
// Setup would produce.
func (o *galerkinOp) Refresh() error {
	if o.stream != nil {
		o.stream.Refresh()
	} else {
		fine := o.env.FineCSR()
		if fine == nil {
			return fmt.Errorf("op: Galerkin requires an assembled finer level")
		}
		if fine != o.fine {
			// The finer level handed over a different matrix object (its
			// own pattern changed); the cached symbolics no longer apply.
			return o.build(fine)
		}
		la.MatMulNumeric(fine, o.p, o.ap, o.env.Workers)
	}
	la.MatMulNumeric(o.pt, o.ap, o.raw, o.env.Workers)
	if !o.zeroPatternUnchanged() {
		// A structural zero changed state; a cold augmentation would
		// produce a different pattern, so redo it (rare).
		o.augment()
		return nil
	}
	for k, pos := range o.rawToAug {
		if pos >= 0 {
			o.a.Val[pos] = o.raw.Val[k]
		}
	}
	for _, pos := range o.augDiag {
		o.a.Val[pos] = 1
	}
	return nil
}

// augment derives the served matrix from raw with la.Builder's semantics
// (Add of every raw entry, which skips zeros, then Set of a unit diagonal
// on each constrained row; the transfer operators drop Dirichlet-
// constrained dofs, so the triple product leaves those rows empty): the
// nonzero raw entries in column order, a constrained row's diagonal set
// to 1, inserted in order when raw has none. The matrix is new and sized
// exactly — a coarse solver built on the old pattern sees the change —
// and the raw→served value mapping is recorded for later refreshes.
func (o *galerkinOp) augment() {
	mask := o.env.Prob.BC.Mask
	raw := o.raw
	nnz := 0
	for r := 0; r < raw.NRows; r++ {
		diag := !mask[r]
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			if j := raw.ColInd[k]; j == r && !diag {
				diag = true
				nnz++
			} else if raw.Val[k] != 0 {
				nnz++
			}
		}
		if !diag {
			nnz++
		}
	}
	a := &la.CSR{NRows: raw.NRows, NCols: raw.NCols, RowPtr: make([]int, 1, raw.NRows+1),
		ColInd: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
	o.rawToAug = la.Resized(o.rawToAug, raw.NNZ())
	o.augDiag = o.augDiag[:0]
	for r := 0; r < raw.NRows; r++ {
		diag := !mask[r]
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			j, v := raw.ColInd[k], raw.Val[k]
			if !diag && j >= r {
				diag = true
				o.augDiag = append(o.augDiag, len(a.Val))
				a.ColInd, a.Val = append(a.ColInd, r), append(a.Val, 1)
				if j == r {
					o.rawToAug[k] = len(a.Val) - 1
					continue
				}
			}
			if v == 0 {
				o.rawToAug[k] = -1
				continue
			}
			o.rawToAug[k] = len(a.Val)
			a.ColInd, a.Val = append(a.ColInd, j), append(a.Val, v)
		}
		if !diag {
			o.augDiag = append(o.augDiag, len(a.Val))
			a.ColInd, a.Val = append(a.ColInd, r), append(a.Val, 1)
		}
		a.RowPtr = append(a.RowPtr, len(a.Val))
	}
	o.a = a
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

func (o *galerkinOp) Apply(x, y la.Vec) { o.a.MulVecPar(x, y, o.env.Workers) }
func (o *galerkinOp) Diag(d la.Vec)     { csrDiag(o.a, d) }
func (o *galerkinOp) Cost() Cost        { return asmCost(o.env.Prob.DA.NElements(), o.a) }
func (o *galerkinOp) Kind() Kind        { return Galerkin }
func (o *galerkinOp) CSR() *la.CSR      { return o.a }
