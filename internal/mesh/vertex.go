package mesh

// The "vertex grid" is the (Mx+1)×(My+1)×(Mz+1) grid of element corner
// vertices — the Q1 mesh embedded in the Q2 mesh. Material-point fields
// (effective viscosity, density) are projected onto this grid (paper
// §II-C, Eq. 12) and interpolated trilinearly to quadrature points
// (Eq. 13).

// NVertices returns the number of element corner vertices.
func (da *DA) NVertices() int { return (da.Mx + 1) * (da.My + 1) * (da.Mz + 1) }

// VertexID returns the global vertex index of corner (i,j,k),
// 0 <= i <= Mx etc.
func (da *DA) VertexID(i, j, k int) int {
	return (k*(da.My+1)+j)*(da.Mx+1) + i
}

// VertexIJK inverts VertexID.
func (da *DA) VertexIJK(v int) (i, j, k int) {
	i = v % (da.Mx + 1)
	j = (v / (da.Mx + 1)) % (da.My + 1)
	k = v / ((da.Mx + 1) * (da.My + 1))
	return
}

// VertexNode returns the Q2 node index coincident with vertex (i,j,k)
// (vertices sit on the even nodes of the Q2 grid).
func (da *DA) VertexNode(i, j, k int) int { return da.NodeID(2*i, 2*j, 2*k) }

// ElemVertices fills vs with the 8 global vertex indices of element e, in
// Q1 local ordering (i fastest: l = (k*2+j)*2+i).
func (da *DA) ElemVertices(e int, vs *[8]int32) {
	ei, ej, ek := da.ElemIJK(e)
	l := 0
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				vs[l] = int32(da.VertexID(ei+i, ej+j, ek+k))
				l++
			}
		}
	}
}

// RestrictVertexFW restricts a vertex-grid scalar field to the coarse mesh
// by full weighting: each coarse vertex receives the trilinear-weighted
// (arithmetic) average of its 27 fine-vertex neighbours. This mimics
// re-projecting the material points onto the coarse level (paper §II-C):
// unlike injection it preserves the local average of the coefficient, and
// multigrid convergence at high contrast depends on it. The geometric
// (log-space) mean was measured on sinker-swarm and is worse — the
// viscous-block solve takes 59 FGMRES iterations against 36, the coupled
// one does not converge in 300 (EXPERIMENTS.md, "One dispatch per
// smoother visit") — and is gone.
func RestrictVertexFW(fine, coarse *DA, ffield, cfield []float64) {
	if len(ffield) != fine.NVertices() || len(cfield) != coarse.NVertices() {
		panic("mesh: RestrictVertexFW length mismatch")
	}
	for k := 0; k <= coarse.Mz; k++ {
		for j := 0; j <= coarse.My; j++ {
			for i := 0; i <= coarse.Mx; i++ {
				var sum, wsum float64
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							fi, fj, fk := 2*i+di, 2*j+dj, 2*k+dk
							if fi < 0 || fi > fine.Mx || fj < 0 || fj > fine.My || fk < 0 || fk > fine.Mz {
								continue
							}
							w := 1.0
							if di != 0 {
								w *= 0.5
							}
							if dj != 0 {
								w *= 0.5
							}
							if dk != 0 {
								w *= 0.5
							}
							v := ffield[fine.VertexID(fi, fj, fk)]
							sum += w * v
							wsum += w
						}
					}
				}
				cfield[coarse.VertexID(i, j, k)] = sum / wsum
			}
		}
	}
}
