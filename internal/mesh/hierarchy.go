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
	for k := 0; k < c.NPz; k++ {
		for j := 0; j < c.NPy; j++ {
			for i := 0; i < c.NPx; i++ {
				cn := c.NodeID(i, j, k)
				fn := da.NodeID(2*i, 2*j, 2*k)
				c.Coords[3*cn] = da.Coords[3*fn]
				c.Coords[3*cn+1] = da.Coords[3*fn+1]
				c.Coords[3*cn+2] = da.Coords[3*fn+2]
			}
		}
	}
	return c
}

// RefreshCoarsenCoords re-injects the coarse nodal coordinates from the
// fine mesh — the same rule Coarsen applies at construction — after the
// fine coordinates have moved (ALE remeshing). The hierarchy stays
// nodally nested without rebuilding any topology.
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

// RefreshCoarsenBCVals re-inherits the coarse boundary *values* from the
// fine level after they changed (time-dependent boundary conditions).
// The masks are part of the cached solver topology and must not change.
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

// CoarsenBC derives the coarse-level Dirichlet mask from a fine-level one:
// a coarse node inherits the constraint of the coincident fine node. For
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
					cbc.Val[3*cn+c] = fbc.Val[3*fn+c]
				}
			}
		}
	}
	return cbc
}
