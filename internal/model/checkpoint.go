package model

import (
	"fmt"

	"ptatin3d/internal/chkpt"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/mpm"
)

// Checkpoint captures the full restartable state of the model: deformed
// mesh geometry (the ALE free surface moves vertices), the coupled
// velocity/pressure solution, temperature, the complete material-point SoA
// (including cached element locations, so a restarted run need not
// re-locate), and the time/step counters.
func (m *Model) Checkpoint() *chkpt.State {
	da := m.Prob.DA
	pts := m.Points
	st := &chkpt.State{
		StepNum: uint64(m.StepNum),
		Time:    m.Time,
		Mx:      uint64(da.Mx), My: uint64(da.My), Mz: uint64(da.Mz),
		Coords:  append([]float64(nil), da.Coords...),
		X:       append([]float64(nil), m.X...),
		PX:      append([]float64(nil), pts.X...),
		PY:      append([]float64(nil), pts.Y...),
		PZ:      append([]float64(nil), pts.Z...),
		Litho:   append([]int32(nil), pts.Litho...),
		Plastic: append([]float64(nil), pts.Plastic...),
		Elem:    append([]int32(nil), pts.Elem...),
		Xi:      append([]float64(nil), pts.Xi...),
		Et:      append([]float64(nil), pts.Et...),
		Ze:      append([]float64(nil), pts.Ze...),
	}
	if m.Temp != nil {
		st.Temp = append([]float64(nil), m.Temp...)
	}
	return st
}

// Restore installs a checkpointed state into a model built with the same
// construction options (mesh resolution, rheology table, solver config).
// It validates the state's dimensions against the model, and its mesh (a
// *mesh.ColumnError), before touching anything, so a refused checkpoint
// leaves the model unchanged.
func (m *Model) Restore(st *chkpt.State) error {
	da := m.Prob.DA
	if int(st.Mx) != da.Mx || int(st.My) != da.My || int(st.Mz) != da.Mz {
		return fmt.Errorf("model: checkpoint grid %d×%d×%d does not match model %d×%d×%d",
			st.Mx, st.My, st.Mz, da.Mx, da.My, da.Mz)
	}
	if len(st.Coords) != len(da.Coords) {
		return fmt.Errorf("model: checkpoint has %d coordinate values, model mesh needs %d",
			len(st.Coords), len(da.Coords))
	}
	ncoup := da.NVelDOF() + da.NPresDOF()
	if len(st.X) != ncoup {
		return fmt.Errorf("model: checkpoint state has %d DOFs, model needs %d", len(st.X), ncoup)
	}
	if m.Temp != nil && len(st.Temp) != len(m.Temp) {
		return fmt.Errorf("model: checkpoint has %d temperature values, model needs %d",
			len(st.Temp), len(m.Temp))
	}
	saved := mesh.DA{Mx: da.Mx, My: da.My, Mz: da.Mz, NPx: da.NPx, NPy: da.NPy, NPz: da.NPz, Coords: st.Coords}
	if _, err := saved.Columns(); err != nil {
		return fmt.Errorf("model: checkpoint mesh: %w", err)
	}
	nel := da.NElements()
	for i, e := range st.Elem {
		if int(e) >= nel {
			return fmt.Errorf("model: checkpoint point %d cached in element %d of %d", i, e, nel)
		}
	}

	copy(da.Coords, st.Coords)
	m.X = append(m.X[:0], st.X...)
	if m.Temp != nil {
		copy(m.Temp, st.Temp)
	}
	m.Points = &mpm.Points{
		X:       append([]float64(nil), st.PX...),
		Y:       append([]float64(nil), st.PY...),
		Z:       append([]float64(nil), st.PZ...),
		Litho:   append([]int32(nil), st.Litho...),
		Plastic: append([]float64(nil), st.Plastic...),
		Elem:    append([]int32(nil), st.Elem...),
		Xi:      append([]float64(nil), st.Xi...),
		Et:      append([]float64(nil), st.Et...),
		Ze:      append([]float64(nil), st.Ze...),
	}
	if m.projector != nil {
		m.projector.Invalidate()
	}
	m.Time = st.Time
	m.StepNum = int(st.StepNum)
	return nil
}

// SaveCheckpoint atomically writes the current model state to path.
func (m *Model) SaveCheckpoint(path string) error {
	return chkpt.Save(path, m.Checkpoint())
}

// LoadCheckpoint restores the model from a checkpoint file.
func (m *Model) LoadCheckpoint(path string) error {
	st, err := chkpt.Load(path)
	if err != nil {
		return err
	}
	return m.Restore(st)
}
