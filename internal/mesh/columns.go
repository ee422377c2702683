package mesh

import (
	"fmt"
	"math"
)

// Columns describes a column mesh, the only kind the time loop builds
// (SetUniformCoords, then UpdateFreeSurface): along two lateral axes a
// node's coordinate depends on its own index alone, and the heights of
// each lateral node column are linear in the node index from its bottom to
// its top. mpm.Locate inverts the element map on it in closed form.
type Columns struct {
	Vertical int          // the vertical axis
	Lateral  [2]int       // the other two, ascending
	Layers   int          // elements along the vertical axis
	Lines    [2][]float64 // node coordinates along each lateral axis
	// Bottom and Top are the first and last node heights of the lateral
	// node column through node a of Lines[0] and node b of Lines[1], at
	// a + b·len(Lines[0]).
	Bottom, Top []float64
}

// ColumnError names the first node, in the order DA.Columns checks, and
// the axis of its coordinate at which a mesh breaks the column invariant.
type ColumnError struct {
	Node, Axis int
	IJK        [3]int
	Reason     string
}

func (e *ColumnError) Error() string {
	return fmt.Sprintf("mesh: not a column mesh: node %d %v, axis %d: %s", e.Node, e.IJK, e.Axis, e.Reason)
}

// columnTol bounds, relative to the element width or the column height,
// the two checks that cannot be bitwise: SetUniformCoords' x0 + i·dx and
// UpdateFreeSurface's bottom + frac·(top − bottom) are linear to rounding.
const columnTol = 1e-12

// Columns derives the column description of the mesh, or returns the
// *ColumnError of the first check that fails: lateral coordinates depend
// bitwise on their own index only; each element's lateral mid node sits
// at its midpoint, to columnTol of the (positive) element width; column
// heights are linear in the node index, to columnTol of the (positive)
// column height. The vertical axis is the one whose coordinate leaves its
// node line at the most nodes (a box, where none does, takes z).
func (da *DA) Columns() (*Columns, error) {
	np, stride := da.axes()
	coord := func(n, a int) float64 { return da.Coords[3*n+a] }
	fail := func(n, a int, format string, args ...any) error {
		i, j, k := da.NodeIJK(n)
		return &ColumnError{Node: n, Axis: a, IJK: [3]int{i, j, k}, Reason: fmt.Sprintf(format, args...)}
	}
	var off, first [3]int // per axis: the nodes off the line through node 0, and the first
	for n := da.NNodes() - 1; n >= 0; n-- {
		i, j, k := da.NodeIJK(n)
		for a, idx := range [3]int{i, j, k} {
			if math.Float64bits(coord(n, a)) != math.Float64bits(coord(idx*stride[a], a)) {
				off[a], first[a] = off[a]+1, n
			}
		}
	}
	v := 2
	for a := 1; a >= 0; a-- {
		if off[a] > off[v] {
			v = a
		}
	}
	lat := lateral(v)
	if a, b := lat[0], lat[1]; off[a] > 0 || off[b] > 0 {
		if off[a] == 0 || off[b] > 0 && first[b] < first[a] {
			a = b
		}
		return nil, fail(first[a], a, "lateral coordinate %g depends on more than its own index", coord(first[a], a))
	}

	c := &Columns{Vertical: v, Lateral: lat, Layers: (np[v] - 1) / 2}
	for l, a := range lat {
		c.Lines[l] = make([]float64, np[a])
		for i := range c.Lines[l] {
			c.Lines[l][i] = coord(i*stride[a], a)
		}
		for i := 1; i < np[a]; i += 2 {
			x0, x1, x2 := c.Lines[l][i-1], c.Lines[l][i], c.Lines[l][i+1]
			if !(x2 > x0) || !(math.Abs(x1-0.5*(x0+x2)) <= columnTol*(x2-x0)) {
				return nil, fail(i*stride[a], a, "mid node at %g of the element from %g to %g", x1, x0, x2)
			}
		}
	}
	var err error
	da.forEachColumn(v, func(n0, step, nv int) {
		bot, top := coord(n0, v), coord(n0+(nv-1)*step, v)
		for t := 1; t < nv && err == nil; t++ {
			if h, want := coord(n0+t*step, v)-bot, float64(t)/float64(nv-1)*(top-bot); !(top > bot) || !(math.Abs(h-want) <= columnTol*(top-bot)) {
				err = fail(n0+t*step, v, "height %g above the column bottom %g, want %g of the column height %g", h, bot, want, top-bot)
			}
		}
		c.Bottom, c.Top = append(c.Bottom, bot), append(c.Top, top)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}
