package mesh

import (
	"errors"
	"math/rand"
	"testing"
)

// roughColumns is a 3×2×4 box whose surface on the max face of axis the
// ALE update moved by a random velocity at every node.
func roughColumns(rng *rand.Rand, axis int) *DA {
	da := New(3, 2, 4, -1, 2, 0, 1, 0.5, 2.5)
	vel := make([]float64, da.NVelDOF())
	for i := range vel {
		vel[i] = 2*rng.Float64() - 1
	}
	UpdateFreeSurface(da, vel, 0.2, axis)
	return da
}

// TestColumns: a box is a column mesh on z; after an ALE update of any
// axis the mesh is one on that axis, with its node lines, layer count and
// the first and last node height of every lateral node column.
func TestColumns(t *testing.T) {
	box := New(3, 2, 4, -1, 2, 0, 1, 0.5, 2.5)
	c, err := box.Columns()
	if err != nil || c.Vertical != 2 || c.Lateral != [2]int{0, 1} {
		t.Fatalf("box: %+v, %v; want vertical axis 2", c, err)
	}
	rng := rand.New(rand.NewSource(5))
	for axis := 0; axis < 3; axis++ {
		da := roughColumns(rng, axis)
		c, err := da.Columns()
		if err != nil {
			t.Fatalf("axis %d: %v", axis, err)
		}
		np := [3]int{da.NPx, da.NPy, da.NPz}
		if c.Vertical != axis || c.Layers != (np[axis]-1)/2 {
			t.Fatalf("axis %d: vertical %d, %d layers", axis, c.Vertical, c.Layers)
		}
		node := func(l0, l1, v int) int {
			var ijk [3]int
			ijk[c.Lateral[0]], ijk[c.Lateral[1]], ijk[axis] = l0, l1, v
			return da.NodeID(ijk[0], ijk[1], ijk[2])
		}
		for l, a := range c.Lateral {
			for i, x := range c.Lines[l] {
				var ijk [3]int
				ijk[a] = i
				if x != da.Coords[3*da.NodeID(ijk[0], ijk[1], ijk[2])+a] {
					t.Fatalf("axis %d: line of axis %d at node %d: %v", axis, a, i, x)
				}
			}
		}
		n0 := len(c.Lines[0])
		for b := range c.Lines[1] {
			for a := range c.Lines[0] {
				bot, top := da.Coords[3*node(a, b, 0)+axis], da.Coords[3*node(a, b, np[axis]-1)+axis]
				if c.Bottom[a+n0*b] != bot || c.Top[a+n0*b] != top {
					t.Fatalf("axis %d: column (%d,%d) from %v to %v, want %v to %v", axis, a, b, c.Bottom[a+n0*b], c.Top[a+n0*b], bot, top)
				}
			}
		}
	}
}

// TestColumnsRefuse: each part of the invariant broken on a mesh whose z
// surface moved is a *ColumnError naming the first offending node and its
// axis.
func TestColumnsRefuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name   string
		mutate func(da *DA) (node, axis int)
	}{
		{"lateral nudge", func(da *DA) (int, int) {
			n := da.NodeID(3, 2, 5)
			da.Coords[3*n] += 1e-9
			return n, 0
		}},
		{"mid node off its midpoint", func(da *DA) (int, int) {
			for j := 0; j < da.NPy; j++ {
				for k := 0; k < da.NPz; k++ {
					da.Coords[3*da.NodeID(1, j, k)] += 1e-6
				}
			}
			return da.NodeID(1, 0, 0), 0
		}},
		{"lines out of order", func(da *DA) (int, int) {
			for i := 0; i < da.NPx; i++ {
				for k := 0; k < da.NPz; k++ {
					da.Coords[3*da.NodeID(i, 4, k)+1] = -1
				}
			}
			return da.NodeID(0, 3, 0), 1
		}},
		{"height off the column's line", func(da *DA) (int, int) {
			n := da.NodeID(2, 1, 3)
			da.Coords[3*n+2] += 1e-6
			return n, 2
		}},
		{"collapsed column", func(da *DA) (int, int) {
			for k := 0; k < da.NPz; k++ {
				da.Coords[3*da.NodeID(4, 3, k)+2] = da.Coords[3*da.NodeID(4, 3, 0)+2]
			}
			return da.NodeID(4, 3, 1), 2
		}},
	} {
		da := roughColumns(rng, 2)
		node, axis := tc.mutate(da)
		_, err := da.Columns()
		var ce *ColumnError
		if !errors.As(err, &ce) || ce.Node != node || ce.Axis != axis {
			t.Fatalf("%s: %v, want a *ColumnError at node %d, axis %d", tc.name, err, node, axis)
		}
		if i, j, k := da.NodeIJK(node); ce.IJK != [3]int{i, j, k} {
			t.Fatalf("%s: %v names %v, want (%d,%d,%d)", tc.name, err, ce.IJK, i, j, k)
		}
	}
}
