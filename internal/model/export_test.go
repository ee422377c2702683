package model

import "ptatin3d/internal/la"

// PointCoefficients returns the per-point η, ρ and Newton factor η′/ε̇ of
// the last UpdateCoefficients (the factor that of the last one asked for
// it), in the model's scratch storage.
func (m *Model) PointCoefficients() (eta, rho, fac []float64) {
	return m.scratch.etaP, m.scratch.rhoP, m.scratch.facP
}

// PointInverses returns the points' inverse Jacobians the last solve's
// first coefficient update computed (nil when no lithology reads ε̇_II).
func (m *Model) PointInverses() []float64 { return m.scratch.jinvP }

// CoeffState returns the coupled state the last coefficient update of a
// solve evaluated the coefficients at.
func (m *Model) CoeffState() la.Vec { return m.scratch.coeffX }

// InFlight returns the record of the step in flight, which the stages
// fill as they run: after a bare SolveStokes, what that solve added.
func (m *Model) InFlight() *StepStats { return &m.rec }
