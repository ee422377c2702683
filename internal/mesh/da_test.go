package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounts(t *testing.T) {
	da := New(2, 3, 4, 0, 1, 0, 1, 0, 1)
	if da.NPx != 5 || da.NPy != 7 || da.NPz != 9 {
		t.Fatalf("node grid %dx%dx%d", da.NPx, da.NPy, da.NPz)
	}
	if da.NNodes() != 5*7*9 {
		t.Fatalf("NNodes = %d", da.NNodes())
	}
	if da.NElements() != 24 {
		t.Fatalf("NElements = %d", da.NElements())
	}
	if da.NVelDOF() != 3*5*7*9 {
		t.Fatalf("NVelDOF = %d", da.NVelDOF())
	}
	if da.NPresDOF() != 4*24 {
		t.Fatalf("NPresDOF = %d", da.NPresDOF())
	}
}

// Property: NodeIJK is the inverse of NodeID, and ElemIJK of ElemID.
func TestIndexRoundTrip(t *testing.T) {
	da := New(3, 4, 5, 0, 1, 0, 1, 0, 1)
	f := func(n uint) bool {
		nid := int(n % uint(da.NNodes()))
		i, j, k := da.NodeIJK(nid)
		return da.NodeID(i, j, k) == nid &&
			i >= 0 && i < da.NPx && j >= 0 && j < da.NPy && k >= 0 && k < da.NPz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(n uint) bool {
		e := int(n % uint(da.NElements()))
		ei, ej, ek := da.ElemIJK(e)
		return da.ElemID(ei, ej, ek) == e
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElemNodesCornersAndCenter(t *testing.T) {
	da := New(2, 2, 2, 0, 2, 0, 2, 0, 2)
	var nodes [27]int32
	da.ElemNodes(da.ElemID(1, 0, 1), &nodes)
	// Local node 0 is the (2*ei, 2*ej, 2*ek) corner.
	if int(nodes[0]) != da.NodeID(2, 0, 2) {
		t.Fatalf("corner node = %d, want %d", nodes[0], da.NodeID(2, 0, 2))
	}
	// Local node 13 (=(1,1,1)) is the element centre.
	if int(nodes[13]) != da.NodeID(3, 1, 3) {
		t.Fatalf("center node = %d, want %d", nodes[13], da.NodeID(3, 1, 3))
	}
	// Local node 26 is the opposite corner.
	if int(nodes[26]) != da.NodeID(4, 2, 4) {
		t.Fatalf("far corner = %d, want %d", nodes[26], da.NodeID(4, 2, 4))
	}
}

func TestElementMapSharedNodes(t *testing.T) {
	da := New(2, 1, 1, 0, 1, 0, 1, 0, 1)
	emap := da.BuildElementMap()
	// Elements 0 and 1 share the i=2 plane of nodes: local i=2 of elem 0
	// equals local i=0 of elem 1 for every (lj,lk).
	for lk := 0; lk < 3; lk++ {
		for lj := 0; lj < 3; lj++ {
			l0 := (lk*3+lj)*3 + 2
			l1 := (lk*3 + lj) * 3
			if emap[l0] != emap[27+l1] {
				t.Fatalf("shared face node mismatch at lj=%d lk=%d", lj, lk)
			}
		}
	}
}

func TestUniformCoords(t *testing.T) {
	da := New(2, 2, 2, 0, 4, 1, 3, -1, 1)
	x, y, z := da.NodeCoords(da.NodeID(2, 2, 2)) // mid node
	if x != 2 || y != 2 || z != 0 {
		t.Fatalf("mid node at (%v,%v,%v)", x, y, z)
	}
	x, y, z = da.NodeCoords(da.NodeID(4, 4, 4))
	if x != 4 || y != 3 || z != 1 {
		t.Fatalf("corner at (%v,%v,%v)", x, y, z)
	}
}

func TestDeform(t *testing.T) {
	da := New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.1*y, y, z
	})
	x, _, _ := da.NodeCoords(da.NodeID(0, 4, 0))
	if math.Abs(x-0.1) > 1e-15 {
		t.Fatalf("sheared x = %v, want 0.1", x)
	}
}

func TestFaceEnumeration(t *testing.T) {
	da := New(2, 3, 4, 0, 1, 0, 1, 0, 1)
	counts := map[Face]int{
		XMin: da.NPy * da.NPz, XMax: da.NPy * da.NPz,
		YMin: da.NPx * da.NPz, YMax: da.NPx * da.NPz,
		ZMin: da.NPx * da.NPy, ZMax: da.NPx * da.NPy,
	}
	for f, want := range counts {
		got := 0
		da.ForEachFaceNode(f, func(n, i, j, k int) {
			got++
			at := map[Face]bool{XMin: i == 0, XMax: i == da.NPx-1, YMin: j == 0, YMax: j == da.NPy-1, ZMin: k == 0, ZMax: k == da.NPz-1}
			if !at[f] {
				t.Fatalf("node (%d,%d,%d) not on face %v", i, j, k, f)
			}
		})
		if got != want {
			t.Fatalf("face %v visited %d nodes, want %d", f, got, want)
		}
	}
}

func TestBCFreeSlip(t *testing.T) {
	da := New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	bc := NewBC(da)
	bc.FreeSlipBox(da, XMin, XMax, YMin, YMax, ZMin)
	// A node on XMin only: x-component constrained, y,z free.
	n := da.NodeID(0, 2, 2)
	if !bc.Mask[3*n] || bc.Mask[3*n+1] || bc.Mask[3*n+2] {
		t.Fatal("free-slip mask wrong on xmin")
	}
	// Top surface (YMax was constrained; ZMax free): node interior in x,y on ZMax.
	n = da.NodeID(2, 2, 4)
	if bc.Mask[3*n] || bc.Mask[3*n+1] || bc.Mask[3*n+2] {
		t.Fatal("free surface node should be unconstrained")
	}
	// ApplyToVec writes the prescribed zero at every constrained dof.
	u := make([]float64, da.NVelDOF())
	for i := range u {
		u[i] = 1
	}
	bc.ApplyToVec(u)
	for d, m := range bc.Mask {
		if m && u[d] != 0 {
			t.Fatal("ApplyToVec missed a dof")
		}
	}
}

func TestBCSetFaceComponentValue(t *testing.T) {
	da := New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	bc := NewBC(da)
	bc.SetFaceComponent(da, XMax, 0, 2.5)
	u := make([]float64, da.NVelDOF())
	bc.ApplyToVec(u)
	n := da.NodeID(da.NPx-1, 1, 1)
	if u[3*n] != 2.5 {
		t.Fatalf("prescribed value not applied: %v", u[3*n])
	}
}
