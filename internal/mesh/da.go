// Package mesh provides the structured, deformable hexahedral mesh used by
// ptatin3d — the analogue of PETSc's DMDA in the original code (paper
// §II-D). The mesh has an IJK topology of Mx×My×Mz Q2 elements; the Q2
// node grid is (2Mx+1)×(2My+1)×(2Mz+1). Nodal coordinates are stored
// explicitly and may be deformed (the mesh is structured in topology only),
// which is what allows a boundary-fitted free surface (paper §I, §III-C).
//
// Degree-of-freedom conventions used throughout the repository:
//   - velocity: 3 dofs per Q2 node, dof = 3*node + component;
//   - pressure: 4 dofs per element (P1disc), dof = 4*element + mode.
package mesh

import "fmt"

// Face identifies one of the six boundary faces of the box topology.
type Face int

// The six faces, named by the coordinate direction and side.
const (
	XMin Face = iota
	XMax
	YMin
	YMax
	ZMin
	ZMax
)

// String returns a human-readable face name.
func (f Face) String() string {
	switch f {
	case XMin:
		return "xmin"
	case XMax:
		return "xmax"
	case YMin:
		return "ymin"
	case YMax:
		return "ymax"
	case ZMin:
		return "zmin"
	case ZMax:
		return "zmax"
	}
	return fmt.Sprintf("face(%d)", int(f))
}

// DA is a structured Q2 finite element mesh with deformable nodal
// coordinates.
type DA struct {
	Mx, My, Mz    int       // number of Q2 elements in each direction
	NPx, NPy, NPz int       // Q2 node counts: 2*M+1 per direction
	Coords        []float64 // 3*NNodes interleaved x,y,z nodal coordinates
}

// New creates a DA with mx×my×mz Q2 elements and uniform coordinates over
// the box [x0,x1]×[y0,y1]×[z0,z1].
func New(mx, my, mz int, x0, x1, y0, y1, z0, z1 float64) *DA {
	if mx < 1 || my < 1 || mz < 1 {
		panic(fmt.Sprintf("mesh: invalid element counts %d,%d,%d", mx, my, mz))
	}
	da := &DA{
		Mx: mx, My: my, Mz: mz,
		NPx: 2*mx + 1, NPy: 2*my + 1, NPz: 2*mz + 1,
	}
	da.Coords = make([]float64, 3*da.NNodes())
	da.SetUniformCoords(x0, x1, y0, y1, z0, z1)
	return da
}

// NNodes returns the number of Q2 nodes.
func (da *DA) NNodes() int { return da.NPx * da.NPy * da.NPz }

// NElements returns the number of Q2 elements.
func (da *DA) NElements() int { return da.Mx * da.My * da.Mz }

// NVelDOF returns the number of velocity degrees of freedom (3 per node).
func (da *DA) NVelDOF() int { return 3 * da.NNodes() }

// NPresDOF returns the number of pressure degrees of freedom (4 per
// element, P1disc).
func (da *DA) NPresDOF() int { return 4 * da.NElements() }

// NodeID returns the global node index of node (i,j,k) on the Q2 grid.
func (da *DA) NodeID(i, j, k int) int { return (k*da.NPy+j)*da.NPx + i }

// NodeIJK returns the (i,j,k) grid indices of a global node index.
func (da *DA) NodeIJK(n int) (i, j, k int) {
	i = n % da.NPx
	j = (n / da.NPx) % da.NPy
	k = n / (da.NPx * da.NPy)
	return
}

// ElemID returns the global element index of element (ei,ej,ek).
func (da *DA) ElemID(ei, ej, ek int) int { return (ek*da.My+ej)*da.Mx + ei }

// ElemIJK returns the (ei,ej,ek) element indices of a global element index.
func (da *DA) ElemIJK(e int) (ei, ej, ek int) {
	ei = e % da.Mx
	ej = (e / da.Mx) % da.My
	ek = e / (da.Mx * da.My)
	return
}

// ElemNodes fills nodes with the 27 global node indices of element e. The
// local ordering is tensor-product with i fastest: local = (lk*3+lj)*3+li,
// matching the basis ordering in package fem.
func (da *DA) ElemNodes(e int, nodes *[27]int32) {
	ei, ej, ek := da.ElemIJK(e)
	i0, j0, k0 := 2*ei, 2*ej, 2*ek
	l := 0
	for lk := 0; lk < 3; lk++ {
		for lj := 0; lj < 3; lj++ {
			base := ((k0+lk)*da.NPy+(j0+lj))*da.NPx + i0
			nodes[l] = int32(base)
			nodes[l+1] = int32(base + 1)
			nodes[l+2] = int32(base + 2)
			l += 3
		}
	}
}

// BuildElementMap returns the explicit element→node gather table: 27
// int32 node indices per element (the E_e of paper §III-D, "explicit
// integer representation").
func (da *DA) BuildElementMap() []int32 {
	nel := da.NElements()
	emap := make([]int32, 27*nel)
	var nodes [27]int32
	for e := 0; e < nel; e++ {
		da.ElemNodes(e, &nodes)
		copy(emap[27*e:27*e+27], nodes[:])
	}
	return emap
}

// SetUniformCoords assigns coordinates for a uniform box mesh.
func (da *DA) SetUniformCoords(x0, x1, y0, y1, z0, z1 float64) {
	dx := (x1 - x0) / float64(da.NPx-1)
	dy := (y1 - y0) / float64(da.NPy-1)
	dz := (z1 - z0) / float64(da.NPz-1)
	for k := 0; k < da.NPz; k++ {
		for j := 0; j < da.NPy; j++ {
			for i := 0; i < da.NPx; i++ {
				n := da.NodeID(i, j, k)
				da.Coords[3*n+0] = x0 + float64(i)*dx
				da.Coords[3*n+1] = y0 + float64(j)*dy
				da.Coords[3*n+2] = z0 + float64(k)*dz
			}
		}
	}
}

// Deform applies f to every node coordinate, replacing (x,y,z) with
// f(x,y,z). Used to create the deformed (but still structured-topology)
// meshes of the paper's performance experiments and tests.
func (da *DA) Deform(f func(x, y, z float64) (float64, float64, float64)) {
	for n := 0; n < da.NNodes(); n++ {
		x, y, z := da.Coords[3*n], da.Coords[3*n+1], da.Coords[3*n+2]
		x, y, z = f(x, y, z)
		da.Coords[3*n], da.Coords[3*n+1], da.Coords[3*n+2] = x, y, z
	}
}

// NodeCoords returns the coordinates of node n.
func (da *DA) NodeCoords(n int) (x, y, z float64) {
	return da.Coords[3*n], da.Coords[3*n+1], da.Coords[3*n+2]
}

// ForEachFaceNode calls fn for every node on face f.
func (da *DA) ForEachFaceNode(f Face, fn func(n, i, j, k int)) {
	imin, imax := 0, da.NPx-1
	jmin, jmax := 0, da.NPy-1
	kmin, kmax := 0, da.NPz-1
	switch f {
	case XMin:
		imax = 0
	case XMax:
		imin = da.NPx - 1
	case YMin:
		jmax = 0
	case YMax:
		jmin = da.NPy - 1
	case ZMin:
		kmax = 0
	case ZMax:
		kmin = da.NPz - 1
	}
	for k := kmin; k <= kmax; k++ {
		for j := jmin; j <= jmax; j++ {
			for i := imin; i <= imax; i++ {
				fn(da.NodeID(i, j, k), i, j, k)
			}
		}
	}
}

// BC holds the velocity Dirichlet constraints: for each velocity dof,
// whether it is constrained and to what value. Constrained dofs are
// eliminated symmetrically from operators and moved to the right-hand side.
type BC struct {
	Mask []bool    // len NVelDOF
	Val  []float64 // len NVelDOF, prescribed value where Mask is true
}

// NewBC returns an unconstrained BC set for the mesh.
func NewBC(da *DA) *BC {
	return &BC{Mask: make([]bool, da.NVelDOF()), Val: make([]float64, da.NVelDOF())}
}

// SetFaceComponent constrains velocity component c (0=x,1=y,2=z) on every
// node of face f to value v. Calling it for the normal component with v=0
// imposes free-slip; calling it for all three components imposes no-slip.
func (bc *BC) SetFaceComponent(da *DA, f Face, c int, v float64) {
	da.ForEachFaceNode(f, func(n, i, j, k int) {
		bc.Mask[3*n+c] = true
		bc.Val[3*n+c] = v
	})
}

// FreeSlipBox applies homogeneous free-slip (zero normal velocity) on the
// given faces.
func (bc *BC) FreeSlipBox(da *DA, faces ...Face) {
	for _, f := range faces {
		c := 0
		switch f {
		case YMin, YMax:
			c = 1
		case ZMin, ZMax:
			c = 2
		}
		bc.SetFaceComponent(da, f, c, 0)
	}
}

// SetFaceFunc constrains all three velocity components on every node of
// face f to the values of fn at that node's coordinates — inhomogeneous
// Dirichlet data, as needed by manufactured-solution (MMS) tests.
func (bc *BC) SetFaceFunc(da *DA, f Face, fn func(x, y, z float64) (u, v, w float64)) {
	da.ForEachFaceNode(f, func(n, i, j, k int) {
		x, y, z := da.NodeCoords(n)
		u, v, w := fn(x, y, z)
		vals := [3]float64{u, v, w}
		for c := 0; c < 3; c++ {
			bc.Mask[3*n+c] = true
			bc.Val[3*n+c] = vals[c]
		}
	})
}

// ApplyToVec overwrites constrained entries of the velocity vector u with
// their prescribed values.
func (bc *BC) ApplyToVec(u []float64) {
	for d, m := range bc.Mask {
		if m {
			u[d] = bc.Val[d]
		}
	}
}
