package comm

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// TestNewDecompRejectsBadShapes: decompositions with non-positive part
// counts or more ranks than elements along an axis must fail with a
// typed *DecompError instead of producing empty slabs (regression: the
// oversubscribed case used to be accepted only because of a separate
// bound check; both paths must yield the typed error).
func TestNewDecompRejectsBadShapes(t *testing.T) {
	da := mesh.New(4, 3, 2, 0, 1, 0, 1, 0, 1)
	cases := []struct{ px, py, pz int }{
		{0, 1, 1}, {1, -1, 1}, {1, 1, 0},
		{5, 1, 1}, {1, 4, 1}, {1, 1, 3}, {8, 8, 8},
	}
	for _, c := range cases {
		_, err := NewDecomp(da, c.px, c.py, c.pz)
		if err == nil {
			t.Fatalf("NewDecomp(%dx%dx%d) on 4x3x2 grid: expected error, got nil", c.px, c.py, c.pz)
		}
		var de *DecompError
		if !errors.As(err, &de) {
			t.Fatalf("NewDecomp(%dx%dx%d): error %v is not a *DecompError", c.px, c.py, c.pz, err)
		}
		if de.Px != c.px || de.Py != c.py || de.Pz != c.pz || de.Mx != 4 || de.My != 3 || de.Mz != 2 {
			t.Fatalf("DecompError fields %+v do not echo the request %dx%dx%d", de, c.px, c.py, c.pz)
		}
	}
	if _, err := NewDecomp(da, 4, 3, 2); err != nil {
		t.Fatalf("maximal valid decomposition rejected: %v", err)
	}

	// The issue's canonical oversubscription: 16 ranks on an 8-element
	// axis (an otherwise plausible 512-rank-era configuration) must be
	// rejected along every axis.
	da8 := mesh.New(8, 8, 8, 0, 1, 0, 1, 0, 1)
	for _, c := range []struct{ px, py, pz int }{
		{16, 1, 1}, {1, 16, 1}, {1, 1, 16}, {16, 16, 16},
	} {
		_, err := NewDecomp(da8, c.px, c.py, c.pz)
		var de *DecompError
		if !errors.As(err, &de) {
			t.Fatalf("NewDecomp(%dx%dx%d) on 8x8x8 grid: want *DecompError, got %v", c.px, c.py, c.pz, err)
		}
	}
	if _, err := NewDecomp(da8, 8, 8, 8); err != nil {
		t.Fatalf("8x8x8 ranks on 8x8x8 elements must be accepted: %v", err)
	}
}

// ownedNodes is the owned-node oracle: the node ids of l's Owned box,
// enumerated node by node in (k,j,i) order.
func ownedNodes(l *Layout) []int32 {
	b := l.Owned
	var out []int32
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				out = append(out, int32(l.D.DA.NodeID(i, j, k)))
			}
		}
	}
	return out
}

// nodesOf returns the node ids of velocity-dof windows in window order,
// one per three dofs.
func nodesOf(spans []la.Span) []int32 {
	var out []int32
	for _, sp := range spans {
		for d := sp.Lo; d < sp.Hi; d += 3 {
			out = append(out, int32(d/3))
		}
	}
	return out
}

// owns reports whether node n is in the owned windows the coarse gather
// ships.
func owns(l *Layout, n int) bool { return slices.Contains(nodesOf(l.OwnedSpans()), int32(n)) }

// TestOwnedSpansCoverOwnedBox: on random decompositions OwnedSpans holds
// exactly the velocity dofs of the Owned box, three per node, in the
// oracle's (k,j,i) order, as ascending windows with no two adjacent (rows
// that touch are merged). An empty box has no windows.
func TestOwnedSpansCoverOwnedBox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		mx, my, mz := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
		d, err := NewDecomp(da, 1+rng.Intn(mx), 1+rng.Intn(my), 1+rng.Intn(mz))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < d.Size(); r++ {
			l := NewLayout(d, r)
			spans := l.OwnedSpans()
			for i, sp := range spans {
				if sp.Lo%3 != 0 || sp.Hi%3 != 0 || sp.Hi <= sp.Lo || (i > 0 && sp.Lo <= spans[i-1].Hi) {
					t.Fatalf("trial %d rank %d: window %d %v of %v is not a maximal run of whole nodes", trial, r, i, sp, spans)
				}
			}
			if got, want := nodesOf(spans), ownedNodes(l); !slices.Equal(got, want) {
				t.Fatalf("trial %d rank %d: OwnedSpans hold nodes %v, the Owned box %v", trial, r, got, want)
			}
		}
	}
	d, err := NewDecomp(mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Box{{}, {Lo: [3]int{0, 2, 2}, Hi: [3]int{3, 0, 0}}} {
		if sp := velSpans(d, b); sp != nil {
			t.Errorf("velSpans(%v) = %v, want nil for an empty box", b, sp)
		}
	}
}

// TestNodeOwnershipProperty: randomized-decomp property test. For every
// Q2 node: exactly one rank's owned box contains it, that rank agrees
// with the element-based NodeOwner convention, and the owner is within
// the 26-neighbourhood of every rank whose elements touch the node.
func TestNodeOwnershipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		mx, my, mz := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		da := mesh.New(mx, my, mz, 0, 1, 0, 1, 0, 1)
		px, py, pz := 1+rng.Intn(mx), 1+rng.Intn(my), 1+rng.Intn(mz)
		d, err := NewDecomp(da, px, py, pz)
		if err != nil {
			t.Fatalf("trial %d: NewDecomp(%dx%dx%d on %dx%dx%d): %v", trial, px, py, pz, mx, my, mz, err)
		}
		layouts := make([]*Layout, d.Size())
		for r := 0; r < d.Size(); r++ {
			layouts[r] = NewLayout(d, r)
		}
		// touchedBy[node] = set of ranks with an element containing node.
		touchedBy := make([]map[int]bool, da.NNodes())
		var nodes [27]int32
		for r := 0; r < d.Size(); r++ {
			for _, e := range d.LocalElements(r) {
				da.ElemNodes(e, &nodes)
				for _, n := range nodes {
					if touchedBy[n] == nil {
						touchedBy[n] = map[int]bool{}
					}
					touchedBy[n][r] = true
				}
			}
		}
		for n := 0; n < da.NNodes(); n++ {
			owners := 0
			boxOwner := -1
			for r := 0; r < d.Size(); r++ {
				if owns(layouts[r], n) {
					owners++
					boxOwner = r
				}
			}
			if owners != 1 {
				t.Fatalf("trial %d (%dx%dx%d / %dx%dx%d): node %d has %d box owners",
					trial, mx, my, mz, px, py, pz, n, owners)
			}
			if eo := d.NodeOwner(n); eo != boxOwner {
				t.Fatalf("trial %d: node %d: box owner %d != element-convention owner %d",
					trial, n, boxOwner, eo)
			}
			for r := range touchedBy[n] {
				if r == boxOwner {
					continue
				}
				inNbhd := false
				for _, nb := range d.Neighbors(r) {
					if nb == boxOwner {
						inNbhd = true
						break
					}
				}
				if !inNbhd {
					t.Fatalf("trial %d: node %d owner %d not in 26-neighbourhood of touching rank %d",
						trial, n, boxOwner, r)
				}
			}
		}
	}
}

// TestLayoutExchangeLists: ghost/mirror lists must be mutually
// consistent (Ghost[n] on r equals Mirror[r] on n, window for window),
// ghost nodes must be owned by the listed neighbour, and the
// interior/boundary element split must be exact: interior elements
// touch only owned nodes, boundary elements at least one foreign node.
func TestLayoutExchangeLists(t *testing.T) {
	da := mesh.New(5, 4, 3, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	layouts := make([]*Layout, d.Size())
	for r := 0; r < d.Size(); r++ {
		layouts[r] = NewLayout(d, r)
	}
	var nodes [27]int32
	for r := 0; r < d.Size(); r++ {
		l := layouts[r]
		if len(l.Interior)+len(l.Boundary) != len(l.Elems) {
			t.Fatalf("rank %d: interior %d + boundary %d != elems %d",
				r, len(l.Interior), len(l.Boundary), len(l.Elems))
		}
		for _, e := range l.Interior {
			da.ElemNodes(e, &nodes)
			for _, n := range nodes {
				if !owns(l, int(n)) {
					t.Fatalf("rank %d: interior element %d touches foreign node %d", r, e, n)
				}
			}
		}
		for _, e := range l.Boundary {
			da.ElemNodes(e, &nodes)
			foreign := false
			for _, n := range nodes {
				if !owns(l, int(n)) {
					foreign = true
					break
				}
			}
			if !foreign {
				t.Fatalf("rank %d: boundary element %d touches only owned nodes", r, e)
			}
		}
		for _, nb := range l.Neighbors {
			g, m := l.Ghost[nb], layouts[nb].Mirror[r]
			if !slices.Equal(g, m) {
				t.Fatalf("rank %d ghost[%d] %v != rank %d mirror[%d] %v", r, nb, g, nb, r, m)
			}
			for _, node := range nodesOf(g) {
				if !owns(layouts[nb], int(node)) {
					t.Fatalf("rank %d ghost node %d not owned by neighbour %d", r, node, nb)
				}
				if owns(l, int(node)) {
					t.Fatalf("rank %d ghost node %d is its own", r, node)
				}
			}
		}
	}
}
