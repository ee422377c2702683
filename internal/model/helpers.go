package model

import "ptatin3d/internal/la"

// Velocity returns the velocity part of the coupled state.
func (m *Model) Velocity() la.Vec {
	return m.X[:m.Prob.DA.NVelDOF()]
}

// Pressure returns the pressure part of the coupled state.
func (m *Model) Pressure() la.Vec {
	return m.X[m.Prob.DA.NVelDOF():]
}
