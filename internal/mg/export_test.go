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

// DistLevelBuilt reports whether the distributed view built level l an
// operator, a smoother or a residual vector.
func DistLevelBuilt(m *DistMG, l int) bool {
	v := m.lev[l]
	return v.op != nil || v.smoother != nil || v.r != nil
}

// DistLevelHasRHS reports whether the distributed view holds level l a
// restricted right-hand-side vector.
func DistLevelHasRHS(m *DistMG, l int) bool { return m.lev[l].bc != nil }
