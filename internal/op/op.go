// Package op is the unified viscous-operator layer: a single Operator
// interface over the representations studied in the paper (tensor
// matrix-free, reference matrix-free, rediscretized CSR, Galerkin CSR),
// a constructor table over their fixed kinds (New), and the one function
// that decides which kind runs on which multigrid level (Layout). The
// paper's headline observation — no single representation wins
// everywhere; matrix-free dominates on fine Q2 levels while assembled
// SpMV wins where the coarse solver needs a matrix — is that table
// (Table IV's rows are configured layouts), not a run-time measurement:
// ptatin-tables table1 prints the per-kind study behind it.
//
// Every backend carries cost metadata (per-apply flops and bytes) derived
// from the analytic per-element counts in internal/perfmodel.
package op

import (
	"fmt"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
)

// Kind identifies an operator representation.
type Kind int

// Operator representations. The zero value is the tensor matrix-free
// kernel — the paper's production fine-level choice — so zero-valued
// configurations keep today's behaviour.
const (
	// Tensor applies the operator matrix-free with the tensor-product
	// kernel ("Tens" in Tables I-III). Flag name: "mf".
	Tensor Kind = iota
	// MFRef applies the operator matrix-free with the reference
	// non-tensor kernel ("MF"). Flag name: "mfref".
	MFRef
	// Assembled rediscretizes on the level's mesh and applies the CSR
	// matrix by row-parallel SpMV ("Asmb"). Flag name: "asm".
	Assembled
	// Galerkin builds the CSR operator as the triple product Pᵀ·A_fine·P;
	// requires an assembled finer level. Flag name: "galerkin".
	Galerkin
	// TensorC applies the stored-coefficient resident tensor kernel
	// ("TensorC" of Table I, restructured for cache-blocked smoothing):
	// the combined metric+coefficient tensor is precomputed at Setup, so
	// the apply needs no coordinate gather or Jacobian inversion and its
	// element data can stay cache-resident across blocked smoother
	// sweeps. Flag name: "mfc".
	TensorC
	// TensorF32 is TensorC with float32 stored coefficients and float32
	// element arithmetic (global vectors and scatter stay float64): the
	// single-precision kernel of the kernel study (the benchmark's mf32
	// rows), built only through New. Layout refuses it, so no solver runs
	// it. Flag name: "mf32".
	TensorF32
)

// String returns the canonical flag name of the kind.
func (k Kind) String() string {
	switch k {
	case Tensor:
		return "mf"
	case MFRef:
		return "mfref"
	case Assembled:
		return "asm"
	case Galerkin:
		return "galerkin"
	case TensorC:
		return "mfc"
	case TensorF32:
		return "mf32"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a representation name (mf|mfc|mf32|mfref|asm|galerkin,
// plus the Table-I aliases tensor/tens, ref, asmb/assembled, rap).
// Whether a kind may be a hierarchy's fine kind is Layout's call.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "mf", "tensor", "tens":
		return Tensor, nil
	case "mfref", "ref":
		return MFRef, nil
	case "asm", "asmb", "assembled":
		return Assembled, nil
	case "galerkin", "rap":
		return Galerkin, nil
	case "auto":
		return 0, fmt.Errorf("op: the run-time selector %q was removed; the fixed layout is mfc on the fine levels over a galerkin coarsest (want mfc|mf|mfref|asm|galerkin)", s)
	case "mfc", "tensorc", "resident":
		return TensorC, nil
	case "mf32", "tensorf32":
		return TensorF32, nil
	}
	return 0, fmt.Errorf("op: unknown kind %q (want mf|mfc|mf32|mfref|asm|galerkin)", s)
}

// Cost is a representation's per-application work (whole operator, not
// per element).
type Cost struct {
	ApplyFlops, ApplyBytes float64
}

// Operator is the unified viscous-block operator: every representation
// applies the symmetric-Dirichlet-eliminated operator y = A·x (it is a
// krylov.Op), refreshes what it caches of the coefficients, exposes its
// diagonal (for Jacobi/Chebyshev smoothing), its cost metadata, and —
// when one exists — its assembled CSR form for coarse-solver handoff
// (GAMG, block-Jacobi, ASM all consume a matrix). Nonlinear residuals of
// boundary-valued states are not an operator's job: stokes.Op.Residual
// evaluates them with the problem's tensor kernel whatever the kind.
type Operator interface {
	N() int
	Apply(x, y la.Vec)
	// Setup performs the representation's one-time construction
	// (assembly, Galerkin triple product, stored-tensor precomputation):
	// the one set-up path, which every caller runs before Apply, Diag,
	// CSR or Refresh. It is idempotent.
	Setup() error
	// Refresh re-derives the numeric content the representation caches
	// (assembled CSR values, Galerkin triple products, resident
	// coefficient tensors) from the problem's current coefficients and
	// coordinates into its existing structure, bit-identical to tearing
	// it down and setting it up again. The matrix-free kinds read the
	// coefficients live, so theirs is a no-op.
	Refresh() error
	// Diag writes the operator diagonal (unit entries on constrained
	// rows, never zero) into d.
	Diag(d la.Vec)
	Cost() Cost
	Kind() Kind
	// CSR returns the assembled matrix, or nil for matrix-free
	// representations.
	CSR() *la.CSR
}

// Env is the context a backend is built in. Prob is the level's
// discretization; FineCSR/FineProb/Prolong connect a level to the
// next-finer one (the closures keep this package free of internal/mg):
// FineCSR returns the finer level's assembled matrix (nil if that level
// is matrix-free), FineProb is the finer level's discretization and
// Prolong returns the prolongation from this level to the finer one as
// CSR. All are nil outside a hierarchy.
type Env struct {
	Prob     *fem.Problem
	Workers  int
	FineCSR  func() *la.CSR
	FineProb *fem.Problem
	Prolong  func() *la.CSR
}

// New builds the representation k for env. The returned operator is not
// yet set up; call Setup before any other method but N, Kind and Cost.
func New(k Kind, env Env) (Operator, error) {
	if env.Prob == nil {
		return nil, fmt.Errorf("op: nil problem")
	}
	if env.Workers <= 0 {
		env.Workers = env.Prob.Workers
	}
	if env.Workers <= 0 {
		env.Workers = 1
	}
	switch k {
	case Tensor:
		return &tensorOp{k: fem.NewTensor(env.Prob), p: env.Prob}, nil
	case MFRef:
		return &mfrefOp{k: fem.NewMF(env.Prob), p: env.Prob}, nil
	case Assembled:
		return &asmOp{p: env.Prob, workers: env.Workers}, nil
	case Galerkin:
		return newGalerkinOp(env)
	case TensorC, TensorF32:
		return newResidentOp(env, k == TensorF32), nil
	}
	return nil, fmt.Errorf("op: unknown kind %v", k)
}

// Layout decides which representation runs where: the kind of the
// coupled Stokes matvec and the kind of every hierarchy level (index 0 =
// finest) for a requested fine kind. It is the only place that knows it.
//
// The coupled matvec runs the fine kind (Galerkin is shorthand for the
// GMG-ii layout: an assembled fine operator with a Galerkin product on
// every coarse level), and the hierarchy shares it as its level 0. Below
// it sits the paper's production coarse layout — rediscretized on the
// first coarse level, Galerkin products further down (a matrix-free
// finest level has no matrix to take a product of); under the resident
// fine kind the first coarse level is resident too unless it is the
// coarsest.
//
// TensorF32 is rejected: the solver iterates and preconditions in
// float64, and mf32 exists only as a kernel New builds for the kernel
// study.
func Layout(levels int, fine Kind) (coupled Kind, kinds []Kind, err error) {
	if fine == TensorF32 {
		return 0, nil, fmt.Errorf("op: %v cannot be the fine kind: it is the single-precision kernel of the kernel study, built only through op.New; the solver iterates and preconditions in float64", fine)
	}
	coupled = fine
	if fine == Galerkin {
		coupled = Assembled
	}
	kinds = make([]Kind, max(1, levels))
	kinds[0] = coupled
	for l := 1; l < len(kinds); l++ {
		switch {
		case fine == Galerkin || l > 1:
			kinds[l] = Galerkin
		case fine == TensorC && l < len(kinds)-1:
			kinds[l] = TensorC
		default:
			kinds[l] = Assembled
		}
	}
	return coupled, kinds, nil
}
