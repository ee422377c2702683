package mg

import "ptatin3d/internal/fem"

// DistLevelResident returns the resident kernel the distributed view
// applies on level l, or nil when that level applies anything else.
func DistLevelResident(m *DistMG, l int) *fem.Resident {
	if h, ok := m.lev[l].op.(*haloElementOp); ok {
		res, _ := h.k.(*fem.Resident)
		return res
	}
	return nil
}
