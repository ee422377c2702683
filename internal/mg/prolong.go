// Package mg implements the geometric multigrid preconditioner of paper
// §III-C for the viscous block: nodally nested mesh hierarchies,
// prolongation by trilinear interpolation on the embedded Q1 space of the
// Q2 node grid, restriction as its transpose, coarse operators by
// rediscretization or Galerkin projection, Chebyshev/Jacobi smoothing and
// a pluggable coarse-grid solver (block-Jacobi+LU, inner Krylov, or the
// smoothed-aggregation AMG of package amg).
package mg

import (
	"ptatin3d/internal/comm"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/par"
)

// Prolongation interpolates a 3-component velocity field from a coarse
// mesh to the next finer mesh of a nodally nested hierarchy. Fine nodes
// with even grid indices coincide with coarse nodes (weight 1); odd
// indices average the two neighbouring coarse nodes (weight ½ each) —
// trilinear interpolation of the embedded Q1 space (paper §III-C).
// Dirichlet-constrained rows (fine) and columns (coarse) are zeroed so the
// hierarchy acts on the free space.
type Prolongation struct {
	Fine, Coarse     *mesh.DA
	FineBC, CoarseBC *mesh.BC
	Workers          int
}

// NewProlongation wires a prolongation between the two meshes. BCs may be
// nil for an unconstrained transfer.
func NewProlongation(fine, coarse *mesh.DA, fbc, cbc *mesh.BC) *Prolongation {
	if fine.NPx != 2*coarse.NPx-1 || fine.NPy != 2*coarse.NPy-1 || fine.NPz != 2*coarse.NPz-1 {
		panic("mg: meshes are not a nested pair")
	}
	return &Prolongation{Fine: fine, Coarse: coarse, FineBC: fbc, CoarseBC: cbc, Workers: 1}
}

// stencil1D returns the coarse indices and weights interpolating fine
// index i in one direction.
func stencil1D(i int) (i0, i1 int, w0, w1 float64) {
	if i%2 == 0 {
		return i / 2, -1, 1, 0
	}
	return (i - 1) / 2, (i + 1) / 2, 0.5, 0.5
}

// stencil lists the coarse nodes interpolating fine node (i, j, k) — first
// velocity dof cd[t] and trilinear weight w[t] for t < n ≤ 8 — in
// {k0,k1}×{j0,j1}×{i0,i1} order: the one enumeration of the transfer
// stencil, behind prolongation on any box and the assembled form.
func (p *Prolongation) stencil(i, j, k int, cd *[8]int, w *[8]float64) (n int) {
	i0, i1, wi0, wi1 := stencil1D(i)
	j0, j1, wj0, wj1 := stencil1D(j)
	k0, k1, wk0, wk1 := stencil1D(k)
	for _, kk := range [2]struct {
		idx int
		w   float64
	}{{k0, wk0}, {k1, wk1}} {
		if kk.idx < 0 {
			continue
		}
		for _, jj := range [2]struct {
			idx int
			w   float64
		}{{j0, wj0}, {j1, wj1}} {
			if jj.idx < 0 {
				continue
			}
			cd[n], w[n] = 3*p.Coarse.NodeID(i0, jj.idx, kk.idx), wi0*jj.w*kk.w
			n++
			if i1 >= 0 {
				cd[n], w[n] = 3*p.Coarse.NodeID(i1, jj.idx, kk.idx), wi1*jj.w*kk.w
				n++
			}
		}
	}
	return n
}

// masks returns the constraint masks of the two meshes (nil without BCs).
func (p *Prolongation) masks() (cmask, fmask []bool) {
	if p.CoarseBC != nil {
		cmask = p.CoarseBC.Mask
	}
	if p.FineBC != nil {
		fmask = p.FineBC.Mask
	}
	return cmask, fmask
}

// wholeBox is the node box of an entire mesh.
func wholeBox(da *mesh.DA) comm.Box {
	return comm.Box{Hi: [3]int{da.NPx, da.NPy, da.NPz}}
}

// Apply computes uf = P·uc.
func (p *Prolongation) Apply(uc, uf la.Vec) {
	par.Run(p.Workers, p.ApplyPart(uc, uf))
}

// ApplyPart is Apply as a par.Part, for the cycle's job.
func (p *Prolongation) ApplyPart(uc, uf la.Vec) par.Part {
	if len(uc) != p.Coarse.NVelDOF() || len(uf) != p.Fine.NVelDOF() {
		panic("mg: prolongation length mismatch")
	}
	return p.applyBoxPart(wholeBox(p.Fine), uc, uf)
}

// applyBox interpolates into the fine nodes of box b, k-planes over the
// worker pool: the whole mesh for Apply, a rank's owned+ghost box on the
// distributed path. Every coarse node read lies in the coarse box nested
// under b, so a rank's prolongation needs no communication.
func (p *Prolongation) applyBox(b comm.Box, uc, uf la.Vec) {
	par.Run(p.Workers, p.applyBoxPart(b, uc, uf))
}

// applyBoxPart is applyBox as a par.Part, one item per k-plane.
func (p *Prolongation) applyBoxPart(b comm.Box, uc, uf la.Vec) par.Part {
	cmask, fmask := p.masks()
	return par.Each(b.Hi[2]-b.Lo[2], func(dk int) {
		k := b.Lo[2] + dk
		var cd [8]int
		var w [8]float64
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				fd := 3 * p.Fine.NodeID(i, j, k)
				var v [3]float64
				for t, n := 0, p.stencil(i, j, k, &cd, &w); t < n; t++ {
					for a := 0; a < 3; a++ {
						if cmask == nil || !cmask[cd[t]+a] {
							v[a] += w[t] * uc[cd[t]+a]
						}
					}
				}
				for a := 0; a < 3; a++ {
					if fmask != nil && fmask[fd+a] {
						uf[fd+a] = 0
					} else {
						uf[fd+a] = v[a]
					}
				}
			}
		}
	})
}

// ApplyTranspose computes rc = Pᵀ·rf (restriction, paper §III-C:
// R = Pᵀ), owner-computes: each coarse node gathers its up to 27 fine
// contributors in ascending (k, j, i) order — the order a scatter over the
// fine grid would add them in — so coarse rows are independent, run on
// Workers pool workers, and sum identically at any worker count.
func (p *Prolongation) ApplyTranspose(rf, rc la.Vec) {
	par.Run(p.Workers, p.ApplyTransposePart(rf, rc))
}

// ApplyTransposePart is ApplyTranspose as a par.Part, for the cycle's job.
func (p *Prolongation) ApplyTransposePart(rf, rc la.Vec) par.Part {
	if len(rc) != p.Coarse.NVelDOF() || len(rf) != p.Fine.NVelDOF() {
		panic("mg: restriction length mismatch")
	}
	return p.restrictBoxPart(wholeBox(p.Coarse), rf, rc)
}

// restrictBox gathers into the coarse nodes of box b: the whole mesh for
// ApplyTranspose, a rank's owned coarse box on the distributed path. The
// fine nodes read — one ring around each coarse node's image — lie in the
// rank's fine owned+ghost box, and each coarse node sums as it does on
// the whole mesh, so a rank's owned rows equal the shared ones bit for bit.
func (p *Prolongation) restrictBox(b comm.Box, rf, rc la.Vec) {
	par.Run(p.Workers, p.restrictBoxPart(b, rf, rc))
}

// restrictBoxPart is restrictBox as a par.Part: the box's (k, j) rows of
// coarse nodes in Workers ranges.
func (p *Prolongation) restrictBoxPart(b comm.Box, rf, rc la.Vec) par.Part {
	f, c := p.Fine, p.Coarse
	cmask, fmask := p.masks()
	// weight of fine index fi in the stencil of the coarse node at 2·ci.
	weight := func(fi, ci int) float64 {
		if fi == 2*ci {
			return 1
		}
		return 0.5
	}
	i0, i1, j0, k0 := b.Lo[0], b.Hi[0], b.Lo[1], b.Lo[2]
	ny := b.Hi[1] - j0
	return par.Ranges(p.Workers, (b.Hi[2]-k0)*ny, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			ck, cj := k0+row/ny, j0+row%ny
			for ci := i0; ci < i1; ci++ {
				var acc [3]float64
				for fk := max(0, 2*ck-1); fk <= min(f.NPz-1, 2*ck+1); fk++ {
					wk := weight(fk, ck)
					for fj := max(0, 2*cj-1); fj <= min(f.NPy-1, 2*cj+1); fj++ {
						wj := weight(fj, cj)
						for fi := max(0, 2*ci-1); fi <= min(f.NPx-1, 2*ci+1); fi++ {
							w := weight(fi, ci) * wj * wk
							fd := 3 * f.NodeID(fi, fj, fk)
							for a := 0; a < 3; a++ {
								if fmask == nil || !fmask[fd+a] {
									acc[a] += w * rf[fd+a]
								}
							}
						}
					}
				}
				cd := 3 * c.NodeID(ci, cj, ck)
				for a := 0; a < 3; a++ {
					if cmask != nil && cmask[cd+a] {
						rc[cd+a] = 0
					} else {
						rc[cd+a] = acc[a]
					}
				}
			}
		}
	})
}

// ToCSR materializes the prolongation as a sparse matrix (fine dofs ×
// coarse dofs) for Galerkin triple products. Constrained fine rows and
// coarse columns are dropped.
func (p *Prolongation) ToCSR() *la.CSR {
	f, c := p.Fine, p.Coarse
	b := la.NewBuilder(f.NVelDOF(), c.NVelDOF())
	cmask, fmask := p.masks()
	var cd [8]int
	var w [8]float64
	for k := 0; k < f.NPz; k++ {
		for j := 0; j < f.NPy; j++ {
			for i := 0; i < f.NPx; i++ {
				fd := 3 * f.NodeID(i, j, k)
				for t, n := 0, p.stencil(i, j, k, &cd, &w); t < n; t++ {
					for a := 0; a < 3; a++ {
						if (fmask == nil || !fmask[fd+a]) && (cmask == nil || !cmask[cd[t]+a]) {
							b.Add(fd+a, cd[t]+a, w[t])
						}
					}
				}
			}
		}
	}
	return b.ToCSR()
}
