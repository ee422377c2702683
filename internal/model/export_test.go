package model

// PointCoefficients returns the per-point η, ρ and Newton factor η′/ε̇ of
// the last UpdateCoefficients (the factor that of the last one asked for
// it), in the model's scratch storage.
func (m *Model) PointCoefficients() (eta, rho, fac []float64) {
	return m.scratch.etaP, m.scratch.rhoP, m.scratch.facP
}
