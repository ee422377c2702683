// Package op is the unified viscous-operator layer: a single Operator
// interface over the representations studied in the paper (tensor
// matrix-free, reference matrix-free, rediscretized CSR, Galerkin CSR),
// a constructor table over their fixed kinds (New), and the one function
// that decides which kind runs on which multigrid level at which
// precision (Layout). The paper's headline observation — no single
// representation wins everywhere; matrix-free dominates on fine Q2
// levels while assembled SpMV wins where the coarse solver needs a
// matrix — is that table (Table IV's rows are configured layouts), not a
// run-time measurement: ptatin-opcost prints the per-kind study behind it.
//
// Every backend carries cost metadata (setup flops/bytes, per-apply
// flops/bytes, assembled storage footprint) derived from the analytic
// per-element counts in internal/perfmodel.
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
	// element arithmetic (global vectors and scatter stay float64). The
	// realized matrix is a single-precision perturbation of the f64 one,
	// so this kind is for preconditioner interiors only — a flexible
	// outer Krylov method absorbs the perturbation. Flag name: "mf32".
	TensorF32
	// AssembledF32 rediscretizes into CSR, stores the values in float32
	// and applies with float64 row accumulation; the float64 matrix
	// remains available through CSR() for coarse-solver handoff. Like
	// TensorF32, preconditioner use only. Flag name: "asm32".
	AssembledF32
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
	case AssembledF32:
		return "asm32"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a representation name (mf|mfc|mf32|mfref|asm|asm32|
// galerkin, plus the Table-I aliases tensor/tens, ref, asmb/assembled,
// rap). Whether a kind may be a hierarchy's fine kind is Layout's call.
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
	case "asm32", "assembledf32":
		return AssembledF32, nil
	}
	return 0, fmt.Errorf("op: unknown kind %q (want mf|mfc|mf32|mfref|asm|asm32|galerkin)", s)
}

// Precision selects the arithmetic width of a preconditioner's operator
// stack. F64 is the default; under F32 Layout swaps matrix-free levels to
// TensorF32 and rediscretized levels to AssembledF32, halving the
// smoother's memory traffic while outer flexible Krylov iterations stay
// double precision.
type Precision int

const (
	F64 Precision = iota
	F32
)

// String returns the canonical flag name of the precision.
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses a -precision flag value (f64|f32, plus the
// aliases double/single and 64/32).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "double", "64", "fp64":
		return F64, nil
	case "f32", "single", "32", "fp32":
		return F32, nil
	}
	return 0, fmt.Errorf("op: unknown precision %q (want f64|f32)", s)
}

// Cost is a representation's absolute cost metadata (whole operator, not
// per element): the one-time setup work, the per-application work, and
// the resident memory an assembled form occupies.
type Cost struct {
	SetupFlops, SetupBytes float64
	ApplyFlops, ApplyBytes float64
	StorageBytes           float64
}

// Operator is the unified viscous-block operator: every representation
// applies the symmetric-Dirichlet-eliminated operator y = A·x, exposes
// its diagonal (for Jacobi/Chebyshev smoothing), its cost metadata, and
// — when one exists — its assembled CSR form for coarse-solver handoff
// (GAMG, block-Jacobi, ASM all consume a matrix).
//
// Representations that can evaluate residuals of boundary-valued states
// additionally implement fem.ResidualOperator (ApplyFreeRows); assembled
// forms satisfy it through an embedded matrix-free twin, mirroring
// pTatin3D's always-matrix-free residuals.
type Operator interface {
	N() int
	Apply(x, y la.Vec)
	// Setup performs the representation's one-time construction
	// (assembly, Galerkin triple product, stored-tensor precomputation).
	// It is idempotent.
	Setup() error
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
// discretization; FineCSR/Prolong connect a level to the next-finer one
// (they are closures so this package needs no dependency on internal/mg):
// FineCSR returns the finer level's assembled matrix (nil if that level
// is matrix-free) and Prolong the prolongation from this level to the
// finer one as CSR. Both are nil outside a hierarchy.
type Env struct {
	Prob    *fem.Problem
	Workers int
	FineCSR func() *la.CSR
	Prolong func() *la.CSR
	// GalerkinInput says the next-coarser level is a Galerkin product of
	// this one. A resident representation then also builds (and
	// refreshes) the level's assembled matrix and hands it off through
	// CSR() — it is never applied: smoothing and residuals stay on the
	// resident kernel.
	GalerkinInput bool
}

// New builds the representation k for env. The returned operator is not
// yet set up; call Setup before (or let the first Apply trigger) use.
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
		return &asmOp{p: env.Prob, workers: env.Workers, mf: fem.NewTensor(env.Prob)}, nil
	case Galerkin:
		return newGalerkinOp(env)
	case TensorC, TensorF32:
		return newResidentOp(env, k == TensorF32), nil
	case AssembledF32:
		return &asm32Op{p: env.Prob, workers: env.Workers, mf: fem.NewTensor(env.Prob)}, nil
	}
	return nil, fmt.Errorf("op: unknown kind %v", k)
}

// Layout decides which representation runs where: the kind of the
// coupled Stokes matvec and the kind of every hierarchy level (index 0 =
// finest) for a requested fine kind at a preconditioner precision. It is
// the only place that knows it.
//
// The coupled matvec runs the fine kind in float64 (Galerkin is shorthand
// for the GMG-ii layout: an assembled fine operator with a Galerkin
// product on every coarse level). Below it sits the paper's production
// coarse layout — rediscretized on the first coarse level, Galerkin
// products further down (a matrix-free finest level has no matrix to
// take a product of); under the resident fine kind the first coarse level
// is resident too unless it is the coarsest. At F32 every level above the
// coarsest then swaps its matrix-free kind for TensorF32 and its
// rediscretized one for AssembledF32 — Galerkin levels stay, their
// float64 product feeds the levels below, and so does the coarsest, whose
// exact matrix the coarse solver consumes. A hierarchy shares the coupled
// operator as its level 0 exactly when kinds[0] == coupled.
//
// A reduced-precision fine kind is rejected: it would put the coupled
// matvec, not just the preconditioner, in single precision.
func Layout(levels int, fine Kind, prec Precision) (coupled Kind, kinds []Kind, err error) {
	if fine == TensorF32 || fine == AssembledF32 {
		return 0, nil, fmt.Errorf("op: %v cannot be the fine kind: the coupled matvec stays float64; for a single-precision preconditioner use -precision f32 (\"precision\": \"f32\" in a spec)", fine)
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
	if prec == F32 {
		for l, k := range kinds[:len(kinds)-1] {
			switch k {
			case Tensor, TensorC, MFRef:
				kinds[l] = TensorF32
			case Assembled:
				kinds[l] = AssembledF32
			}
		}
	}
	return coupled, kinds, nil
}
