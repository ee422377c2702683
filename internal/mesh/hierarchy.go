package mesh

import "fmt"

// CanCoarsen reports whether the mesh admits one level of 2× geometric
// coarsening (all element counts even).
func (da *DA) CanCoarsen() bool {
	return da.Mx%2 == 0 && da.My%2 == 0 && da.Mz%2 == 0 &&
		da.Mx >= 2 && da.My >= 2 && da.Mz >= 2
}

// Coarsen returns the next-coarser mesh of the nodally nested hierarchy
// (paper §III-C): element counts halve and the coarse nodal coordinates
// are defined by injection from the fine mesh — coarse node (i,j,k)
// coincides with fine node (2i,2j,2k).
func (da *DA) Coarsen() *DA {
	if !da.CanCoarsen() {
		panic(fmt.Sprintf("mesh: cannot coarsen %dx%dx%d", da.Mx, da.My, da.Mz))
	}
	c := &DA{
		Mx: da.Mx / 2, My: da.My / 2, Mz: da.Mz / 2,
		NPx: da.Mx + 1, NPy: da.My + 1, NPz: da.Mz + 1,
	}
	c.Coords = make([]float64, 3*c.NNodes())
	RefreshCoarsenCoords(da, c)
	return c
}

// RefreshCoarsenCoords injects the coarse nodal coordinates from the fine
// mesh: the rule Coarsen applies at construction, and again on every
// solver refresh, so that the hierarchy stays nodally nested however the
// fine coordinates moved (ALE remeshing) without rebuilding any topology.
// Unmoved fine coordinates re-inject the same bits.
func RefreshCoarsenCoords(fine, coarse *DA) {
	for k := 0; k < coarse.NPz; k++ {
		for j := 0; j < coarse.NPy; j++ {
			for i := 0; i < coarse.NPx; i++ {
				cn := coarse.NodeID(i, j, k)
				fn := fine.NodeID(2*i, 2*j, 2*k)
				coarse.Coords[3*cn] = fine.Coords[3*fn]
				coarse.Coords[3*cn+1] = fine.Coords[3*fn+1]
				coarse.Coords[3*cn+2] = fine.Coords[3*fn+2]
			}
		}
	}
}

// RefreshCoarsenBCVals inherits the coarse boundary *values* from the
// fine level: at CoarsenBC, and again on every solver refresh
// (time-dependent boundary conditions). The masks are part of the cached
// solver topology and must not change.
func RefreshCoarsenBCVals(fine, coarse *DA, fbc, cbc *BC) {
	for k := 0; k < coarse.NPz; k++ {
		for j := 0; j < coarse.NPy; j++ {
			for i := 0; i < coarse.NPx; i++ {
				cn := coarse.NodeID(i, j, k)
				fn := fine.NodeID(2*i, 2*j, 2*k)
				for c := 0; c < 3; c++ {
					cbc.Val[3*cn+c] = fbc.Val[3*fn+c]
				}
			}
		}
	}
}

// CoarsenBC derives the coarse-level Dirichlet mask and values from a
// fine-level one: a coarse node inherits the constraint of the coincident
// fine node. For
// the box-face constraints used in this package the result is identical to
// re-deriving the constraints on the coarse mesh.
func CoarsenBC(fine, coarse *DA, fbc *BC) *BC {
	cbc := NewBC(coarse)
	for k := 0; k < coarse.NPz; k++ {
		for j := 0; j < coarse.NPy; j++ {
			for i := 0; i < coarse.NPx; i++ {
				cn := coarse.NodeID(i, j, k)
				fn := fine.NodeID(2*i, 2*j, 2*k)
				for c := 0; c < 3; c++ {
					cbc.Mask[3*cn+c] = fbc.Mask[3*fn+c]
				}
			}
		}
	}
	RefreshCoarsenBCVals(fine, coarse, fbc, cbc)
	return cbc
}
