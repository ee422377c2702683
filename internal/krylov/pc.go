package krylov

import (
	"fmt"

	"ptatin3d/internal/la"
)

// Jacobi is diagonal scaling: z = D⁻¹·r. Spans windows the scaling to
// the listed index ranges (a rank's owned+ghost rows on the distributed
// path; nil is the whole vector); InvDiag may be shared between
// instances.
type Jacobi struct {
	InvDiag la.Vec
	Spans   []la.Span
}

// NewJacobi builds a Jacobi preconditioner from a diagonal vector,
// guarding zero entries with 1.
func NewJacobi(diag la.Vec) *Jacobi {
	j := &Jacobi{}
	j.SetDiag(diag)
	return j
}

// SetDiag recomputes the inverse diagonal from diag, as NewJacobi does,
// into InvDiag's storage when it has diag's length. An instance whose
// InvDiag is shared passes the new values on to every sharer.
func (j *Jacobi) SetDiag(diag la.Vec) {
	if len(j.InvDiag) != len(diag) {
		j.InvDiag = la.NewVec(len(diag))
	}
	inv := j.InvDiag
	for i, d := range diag {
		if d != 0 {
			inv[i] = 1 / d
		} else {
			inv[i] = 1
		}
	}
}

// Apply computes z = D⁻¹·r.
func (j *Jacobi) Apply(r, z la.Vec) {
	z.PointwiseMultSpans(j.InvDiag, r, j.Spans)
}

// ILUPC wraps an ILU(0) factorization as a preconditioner.
type ILUPC struct{ F *la.ILU0 }

// Apply computes z = (LU)⁻¹·r.
func (p *ILUPC) Apply(r, z la.Vec) { p.F.Solve(r, z) }

// BlockJacobi partitions the unknowns into nb contiguous blocks and solves
// each diagonal block exactly with a dense LU factorization — the coarse
// level solver used inside the algebraic multigrid configurations of the
// paper ("block Jacobi, with an exact LU factorization applied on each of
// the subdomains", §IV-A).
type BlockJacobi struct {
	nb      int
	offsets []int
	facts   []*la.LU
	blk     la.Dense // the block being factored, kept for Refresh
}

// NewBlockJacobi factors the nb diagonal blocks of a.
func NewBlockJacobi(a *la.CSR, nb int) (*BlockJacobi, error) {
	bj := &BlockJacobi{nb: nb}
	if err := bj.Refresh(a); err != nil {
		return nil, err
	}
	return bj, nil
}

// Refresh refactors the blocks from a, which may have another order than
// the matrix the preconditioner was built on, into the storage of the
// factors it has: bitwise NewBlockJacobi(a, nb). After an error the
// preconditioner is unusable until a Refresh succeeds.
func (bj *BlockJacobi) Refresh(a *la.CSR) error {
	n := a.NRows
	nb := min(max(1, bj.nb), n)
	chunk := (n + nb - 1) / nb
	bj.offsets = bj.offsets[:0]
	nf := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		blk := &bj.blk
		blk.Rows, blk.Cols = hi-lo, hi-lo
		blk.Data = la.Resized(blk.Data, (hi-lo)*(hi-lo))
		clear(blk.Data)
		for i := lo; i < hi; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColInd[k]
				if j >= lo && j < hi {
					blk.Add(i-lo, j-lo, a.Val[k])
				}
			}
		}
		var err error
		if nf < len(bj.facts) {
			err = bj.facts[nf].Refactor(blk)
		} else {
			var f *la.LU
			if f, err = la.Factor(blk); err == nil {
				bj.facts = append(bj.facts, f)
			}
		}
		if err != nil {
			return fmt.Errorf("krylov: block [%d,%d) singular: %w", lo, hi, err)
		}
		bj.offsets = append(bj.offsets, lo)
		nf++
	}
	bj.facts = bj.facts[:nf]
	bj.offsets = append(bj.offsets, n)
	return nil
}

// Apply solves each diagonal block exactly.
func (bj *BlockJacobi) Apply(r, z la.Vec) {
	for b, f := range bj.facts {
		lo, hi := bj.offsets[b], bj.offsets[b+1]
		f.Solve(r[lo:hi], z[lo:hi])
	}
}

// InnerKrylov wraps an iterative solve as a (nonlinear) preconditioner:
// z ≈ A⁻¹·r computed by the chosen method with its own tolerance/iteration
// budget. Pair with flexible outer methods only. This realizes the
// paper's inexact coarse-grid solves (e.g. CG+ASM terminated at 25
// iterations, §V-A, and the FGMRES-based SAML-ii smoother of Table IV).
// The instance lends its one Workspace to every inner solve, so a solve
// allocates nothing once the first has run; it is NOT safe for
// concurrent Apply calls.
type InnerKrylov struct {
	A      Op
	M      Preconditioner
	Method string // "cg"; anything else is FGMRES
	Prm    Params

	work Workspace
}

// Apply runs the inner solve from a zero initial guess.
func (ik *InnerKrylov) Apply(r, z la.Vec) {
	z.Zero()
	prm := ik.Prm
	prm.Work = &ik.work
	switch ik.Method {
	case "cg":
		CG(ik.A, ik.M, r, z, prm)
	default:
		FGMRES(ik.A, ik.M, r, z, prm)
	}
}
