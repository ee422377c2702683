package mesh

import (
	"math"
	"testing"
)

func TestCoarsenNesting(t *testing.T) {
	fine := New(4, 4, 4, 0, 1, 0, 2, 0, 3)
	if !fine.CanCoarsen() {
		t.Fatal("4^3 mesh must be coarsenable")
	}
	coarse := fine.Coarsen()
	if coarse.Mx != 2 || coarse.My != 2 || coarse.Mz != 2 {
		t.Fatalf("coarse elements %dx%dx%d", coarse.Mx, coarse.My, coarse.Mz)
	}
	// Every coarse node coincides with fine node (2i,2j,2k).
	for k := 0; k < coarse.NPz; k++ {
		for j := 0; j < coarse.NPy; j++ {
			for i := 0; i < coarse.NPx; i++ {
				cn := coarse.NodeID(i, j, k)
				fn := fine.NodeID(2*i, 2*j, 2*k)
				for c := 0; c < 3; c++ {
					if coarse.Coords[3*cn+c] != fine.Coords[3*fn+c] {
						t.Fatalf("coarse node (%d,%d,%d) coord %d mismatch", i, j, k, c)
					}
				}
			}
		}
	}
}

func TestCoarsenDeformedMeshStaysNested(t *testing.T) {
	fine := New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	fine.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*math.Sin(3*y), y + 0.05*x*z, z
	})
	coarse := fine.Coarsen()
	cn := coarse.NodeID(1, 2, 1)
	fn := fine.NodeID(2, 4, 2)
	for c := 0; c < 3; c++ {
		if coarse.Coords[3*cn+c] != fine.Coords[3*fn+c] {
			t.Fatal("deformed coarsening not injective")
		}
	}
}

func TestCoarsenOddPanics(t *testing.T) {
	da := New(3, 4, 4, 0, 1, 0, 1, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic coarsening odd mesh")
		}
	}()
	da.Coarsen()
}

// TestHierarchyAndMaxLevels: a mesh coarsens by 2 while every direction
// stays even — 8³ three times down to 1³, 8×2×4 once.
func TestHierarchyAndMaxLevels(t *testing.T) {
	levels := func(da *DA) (n int, coarsest *DA) {
		for n = 1; da.CanCoarsen(); n++ {
			da = da.Coarsen()
		}
		return n, da
	}
	if n, c := levels(New(8, 8, 8, 0, 1, 0, 1, 0, 1)); n != 4 || c.Mx != 1 {
		t.Fatalf("8x8x8: %d levels, coarsest Mx=%d; want 4 and 1", n, c.Mx)
	}
	if n, c := levels(New(8, 2, 4, 0, 1, 0, 1, 0, 1)); n != 2 || c.My != 1 {
		t.Fatalf("8x2x4: %d levels, coarsest My=%d; want 2 and 1", n, c.My)
	}
}

func TestCoarsenBC(t *testing.T) {
	fine := New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	fbc := NewBC(fine)
	fbc.FreeSlipBox(fine, XMin, XMax, YMin, YMax, ZMin)
	coarse := fine.Coarsen()
	cbc := CoarsenBC(fine, coarse, fbc)
	// Compare against re-derived coarse BC.
	ref := NewBC(coarse)
	ref.FreeSlipBox(coarse, XMin, XMax, YMin, YMax, ZMin)
	for d := range cbc.Mask {
		if cbc.Mask[d] != ref.Mask[d] {
			t.Fatalf("coarse BC mask mismatch at dof %d", d)
		}
	}
}

func TestUpdateFreeSurface(t *testing.T) {
	for axis := 0; axis < 3; axis++ {
		da := New(2, 2, 2, 0, 1, 0, 1, 0, 1)
		vel := make([]float64, da.NVelDOF())
		// Uniform upward velocity 1 along the axis.
		for n := 0; n < da.NNodes(); n++ {
			vel[3*n+axis] = 1
		}
		UpdateFreeSurface(da, vel, 0.5, axis)
		min, max := SurfaceRange(da, axis)
		if math.Abs(min-1.5) > 1e-14 || math.Abs(max-1.5) > 1e-14 {
			t.Fatalf("axis %d: surface at [%v,%v], want 1.5", axis, min, max)
		}
		// Columns redistributed linearly: the mid-grid node should sit at 0.75.
		var mid int
		switch axis {
		case 0:
			mid = da.NodeID(2, 1, 1)
		case 1:
			mid = da.NodeID(1, 2, 1)
		default:
			mid = da.NodeID(1, 1, 2)
		}
		if got := da.Coords[3*mid+axis]; math.Abs(got-0.75) > 1e-14 {
			t.Fatalf("axis %d: mid node at %v, want 0.75", axis, got)
		}
		// Bottom face unmoved.
		var bot int
		switch axis {
		case 0:
			bot = da.NodeID(0, 1, 1)
		case 1:
			bot = da.NodeID(1, 0, 1)
		default:
			bot = da.NodeID(1, 1, 0)
		}
		if da.Coords[3*bot+axis] != 0 {
			t.Fatalf("axis %d: bottom moved", axis)
		}
	}
}

func TestUpdateFreeSurfaceNonUniform(t *testing.T) {
	da := New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	vel := make([]float64, da.NVelDOF())
	// Surface velocity varies with x: v_y = x at every node.
	for n := 0; n < da.NNodes(); n++ {
		x, _, _ := da.NodeCoords(n)
		vel[3*n+1] = x
	}
	UpdateFreeSurface(da, vel, 1.0, 1)
	min, max := SurfaceRange(da, 1)
	if math.Abs(min-1.0) > 1e-14 || math.Abs(max-2.0) > 1e-14 {
		t.Fatalf("topography range [%v,%v], want [1,2]", min, max)
	}
}
