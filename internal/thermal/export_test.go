package thermal

import "ptatin3d/internal/la"

// Assemble is the solver's assembly, for the external tests.
func Assemble(s *Solver, T []float64, u la.Vec, dt float64) (*la.CSR, la.Vec) {
	return s.assemble(T, u, dt)
}

// BuilderAssemble is the triplet builder's assembly of s's system: the
// assembly of a solver with s's settings that has kept nothing.
func BuilderAssemble(s *Solver, T []float64, u la.Vec, dt float64) (*la.CSR, la.Vec) {
	fresh := &Solver{Prob: s.Prob, Kappa: s.Kappa, Mask: s.Mask, Val: s.Val, SUPG: s.SUPG}
	return fresh.assemble(T, u, dt)
}
