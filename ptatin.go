// Package ptatin3d is a from-scratch Go reproduction of
//
//	May, Brown & Le Pourhiet, "pTatin3D: High-Performance Methods for
//	Long-Term Lithospheric Dynamics", SC 2014,
//
// a geodynamics modelling package combining the material-point method
// for composition tracking with a mixed Q2–P1(disc) finite element
// discretization of heterogeneous, incompressible visco-plastic Stokes
// flow. The solver is a flexible Krylov method (GCR/FGMRES) around a
// block lower-triangular field-split preconditioner whose viscous block
// is a hybrid geometric/algebraic multigrid with matrix-free
// tensor-product operator application on the fine levels — the paper's
// headline contribution.
//
// This package is the public facade: it re-exports the model driver, the
// paper's two model problems (sinker sedimentation and continental
// rifting), the Stokes solver configuration, and the building blocks
// needed to set up custom problems. The implementation lives under
// internal/ — see DESIGN.md, "Packages", for the system inventory and
// EXPERIMENTS.md, "Paper vs. measured", for the per-table/figure
// reproduction results.
//
// # Quickstart
//
//	spec, _ := ptatin3d.GetScenario("sinker")
//	m, err := ptatin3d.CompileScenario(spec, 2)
//	if err != nil {
//		log.Fatal(err)
//	}
//	for i := 0; i < 3; i++ {
//		if err := m.StepForward(); err != nil {
//			log.Fatal(err)
//		}
//	}
//	m.WriteVTK("sinker.vtk")
package ptatin3d

import (
	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/model"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/nonlinear"
	"ptatin3d/internal/op"
	"ptatin3d/internal/perfmodel"
	"ptatin3d/internal/rheology"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/thermal"
)

// Model is the coupled time-stepping driver: material points + nonlinear
// Stokes + energy equation + ALE free surface.
type Model = model.Model

// StepStats records one time step's solver behaviour (Figure 4 data).
type StepStats = model.StepStats

// StokesBackend executes the inner Krylov solves of a model's nonlinear
// Stokes stage; see SharedBackend and DistributedBackend.
type StokesBackend = model.StokesBackend

// SharedBackend runs the Stokes solves in this process; a compiled Model
// starts with it.
type SharedBackend = model.SharedBackend

// DistributedBackend runs the Stokes solves rank-distributed over the
// simulated MPI fabric.
type DistributedBackend = model.DistributedBackend

// NewDistributedBackend builds a backend over a px×py×pz rank grid.
func NewDistributedBackend(px, py, pz int) *DistributedBackend {
	return model.NewDistributedBackend(px, py, pz, stokes.DistOptions{})
}

// Scenario types: declarative model descriptions that compile into a
// ready-to-step Model (see internal/scenario).
type (
	// Scenario is a declarative model description.
	Scenario = scenario.Spec
	// SinkerOptions parametrizes the §IV-A sedimentation benchmark.
	SinkerOptions = scenario.SinkerOptions
	// RiftOptions parametrizes the §V continental rifting model.
	RiftOptions = scenario.RiftOptions
)

// Scenarios lists the registered scenario names.
func Scenarios() []string { return scenario.Names() }

// GetScenario returns a fresh copy of a registered scenario spec.
func GetScenario(name string) (Scenario, error) { return scenario.Get(name) }

// CompileScenario lowers a spec into a ready-to-step model.
func CompileScenario(s Scenario, workers int) (*Model, error) { return scenario.Compile(s, workers) }

// DefaultSinkerOptions returns the paper's sinker configuration at
// reduced default resolution.
func DefaultSinkerOptions() SinkerOptions { return scenario.DefaultSinkerOptions() }

// DefaultRiftOptions returns the reduced-scale rift configuration.
func DefaultRiftOptions() RiftOptions { return scenario.DefaultRiftOptions() }

// SinkerScenario builds the sedimentation spec for the options.
func SinkerScenario(o SinkerOptions) Scenario { return scenario.Sinker(o) }

// RiftScenario builds the continental rifting spec for the options.
func RiftScenario(o RiftOptions) Scenario { return scenario.Rift(o) }

// Mesh types.
type (
	// DA is the structured, deformable Q2 hexahedral mesh (DMDA analogue).
	DA = mesh.DA
	// BC holds velocity Dirichlet constraints.
	BC = mesh.BC
	// Face identifies a boundary face.
	Face = mesh.Face
)

// Boundary faces.
const (
	XMin = mesh.XMin
	XMax = mesh.XMax
	YMin = mesh.YMin
	YMax = mesh.YMax
	ZMin = mesh.ZMin
	ZMax = mesh.ZMax
)

// NewMesh creates an mx×my×mz-element Q2 mesh over a box.
func NewMesh(mx, my, mz int, x0, x1, y0, y1, z0, z1 float64) *DA {
	return mesh.New(mx, my, mz, x0, x1, y0, y1, z0, z1)
}

// NewBC returns an unconstrained boundary-condition set for the mesh.
func NewBC(da *DA) *BC { return mesh.NewBC(da) }

// Discretization types.
type (
	// Problem is the Q2–P1disc discretization context: mesh, constraints,
	// and quadrature-point coefficients.
	Problem = fem.Problem
	// Vec is a dense vector.
	Vec = la.Vec
)

// NewProblem builds a discretization on the mesh (nil bc = unconstrained).
// Set every constraint of bc first: the Problem's first element loop
// records the constraint mask.
func NewProblem(da *DA, bc *BC) *Problem { return fem.NewProblem(da, bc) }

// Stokes solver types.
type (
	// StokesConfig selects a solver configuration (multigrid depth,
	// fine-level operator kind, coarse solver, outer method).
	StokesConfig = stokes.Config
	// StokesSolver is a configured coupled Stokes solver.
	StokesSolver = stokes.Solver
	// Monitor records per-iteration field residual norms (Figure 2 data).
	Monitor = stokes.Monitor
)

// Operator-representation kinds (Table I variants); see internal/op.
// ResidentTensor, the stored-coefficient "TensorC" kernel, is the default
// fine-level kind.
const (
	ResidentTensor   = op.TensorC
	MatrixFreeTensor = op.Tensor
	MatrixFreeRef    = op.MFRef
	AssembledSpMV    = op.Assembled
	GalerkinCSR      = op.Galerkin
)

// OpKind identifies an operator representation.
type OpKind = op.Kind

// ParseOpKind parses a representation name; mfc|mf|mfref|asm|galerkin are
// the ones a StokesConfig.FineKind accepts.
func ParseOpKind(s string) (OpKind, error) { return op.ParseKind(s) }

// DefaultStokesConfig returns the paper's production configuration
// (§IV-A): 3 levels, resident matrix-free tensor kernel on the two finer
// ones with wavefront-blocked V(2,2) Chebyshev, Galerkin coarsest
// operator, one GAMG V-cycle coarse solve, GCR outer.
func DefaultStokesConfig() StokesConfig { return stokes.DefaultConfig() }

// NewStokesSolver builds a solver for the problem's current coefficients.
func NewStokesSolver(p *Problem, cfg StokesConfig) (*StokesSolver, error) {
	return stokes.New(p, cfg)
}

// Rheology types.
type (
	// Lithology is one rock type's constitutive parameters.
	Lithology = rheology.Lithology
	// LithologyTable maps material-point lithology indices to parameters.
	LithologyTable = rheology.Table
	// RheologyState is the local state a flow law is evaluated at.
	RheologyState = rheology.State
)

// Flow-law kinds.
const (
	ConstantViscosity = rheology.Constant
	ArrheniusLaw      = rheology.Arrhenius
	FrankKamenetskii  = rheology.FrankKamenetskii
)

// Material points.
type (
	// MaterialPoints is the Lagrangian point store.
	MaterialPoints = mpm.Points
)

// NewPointLattice seeds nper³ material points per element.
func NewPointLattice(p *Problem, nper int, classify func(x, y, z float64) int32) *MaterialPoints {
	return mpm.NewLattice(p, nper, classify)
}

// Thermal solver.
type ThermalSolver = thermal.Solver

// NewThermalSolver creates a SUPG energy-equation solver with diffusivity
// kappa on the problem's vertex grid.
func NewThermalSolver(p *Problem, kappa float64) *ThermalSolver {
	return thermal.New(p, kappa)
}

// Nonlinear solver options.
type NonlinearOptions = nonlinear.Options

// DefaultNonlinearOptions returns Newton defaults with Eisenstat–Walker
// forcing and a backtracking line search.
func DefaultNonlinearOptions() NonlinearOptions { return nonlinear.DefaultOptions() }

// Performance model (Table I).
type (
	// OpCounts is a per-element flop/byte cost summary.
	OpCounts = perfmodel.OpCounts
	// MachineBalance is the measured roofline machine model.
	MachineBalance = perfmodel.Machine
)

// PaperTableI returns the paper's published Table I counts.
func PaperTableI() []OpCounts { return perfmodel.PaperTableI() }

// ReproOpCounts returns this implementation's analytic per-element counts.
func ReproOpCounts() []OpCounts { return perfmodel.ReproCounts() }

// MeasureMachine runs the bandwidth/throughput microbenchmarks.
func MeasureMachine() MachineBalance { return perfmodel.MeasureMachine() }

// KrylovParams bounds an iterative solve.
type KrylovParams = krylov.Params

// MomentumRHS assembles the buoyancy load vector for the problem into b.
func MomentumRHS(p *Problem, b Vec) { fem.MomentumRHS(p, b) }
