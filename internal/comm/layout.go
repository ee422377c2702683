package comm

import "ptatin3d/internal/la"

// Layout is the per-rank node-ownership geometry of a Decomp, the basis
// of the rank-distributed vector layout (owned + ghost entries): which
// Q2 nodes this rank owns, which ghost nodes it reads from neighbours,
// and which owned nodes neighbours read from it. All lists are derived
// from axis-aligned box intersections, so both sides of every exchange
// enumerate the same nodes in the same (k,j,i) order and packets can be
// validated structurally.
//
// Ownership convention (paper §II-D / DMDA): rank r's element range
// [a,b) along an axis owns the node range [2a+1, 2b+1) — except the
// first part, which also owns its low boundary layer [0, 2b+1). Owned
// boxes therefore partition the node grid exactly.
//
// The ghost (read) region is one element wider than the owned box: the
// columns of an owned matrix row reach every node sharing an element
// with an owned node, i.e. the nodes of elements [a, min(b+1,M)).

// Box is a half-open node-index box [Lo[a], Hi[a]) per axis (x,y,z).
type Box struct {
	Lo, Hi [3]int
}

// Empty reports whether the box contains no nodes.
func (b Box) Empty() bool {
	return b.Hi[0] <= b.Lo[0] || b.Hi[1] <= b.Lo[1] || b.Hi[2] <= b.Lo[2]
}

// Count returns the number of nodes in the box.
func (b Box) Count() int {
	if b.Empty() {
		return 0
	}
	return (b.Hi[0] - b.Lo[0]) * (b.Hi[1] - b.Lo[1]) * (b.Hi[2] - b.Lo[2])
}

// intersect returns the (possibly empty) intersection of two boxes.
func intersect(a, b Box) Box {
	var c Box
	for ax := 0; ax < 3; ax++ {
		c.Lo[ax] = max(a.Lo[ax], b.Lo[ax])
		c.Hi[ax] = min(a.Hi[ax], b.Hi[ax])
	}
	return c
}

// ownedBox returns the node box owned by rank r under d.
func ownedBox(d *Decomp, r int) Box {
	ilo, ihi, jlo, jhi, klo, khi := d.ElementRange(r)
	lo := func(a int) int {
		if a == 0 {
			return 0
		}
		return 2*a + 1
	}
	return Box{
		Lo: [3]int{lo(ilo), lo(jlo), lo(klo)},
		Hi: [3]int{2*ihi + 1, 2*jhi + 1, 2*khi + 1},
	}
}

// extBox returns rank r's read region: the nodes of every element whose
// support contains an owned node (owned box grown by one element layer
// upward and one node downward, clipped to the grid).
func extBox(d *Decomp, r int) Box {
	ilo, ihi, jlo, jhi, klo, khi := d.ElementRange(r)
	hi := func(b, m int) int { return 2*min(b+1, m) + 1 }
	return Box{
		Lo: [3]int{2 * ilo, 2 * jlo, 2 * klo},
		Hi: [3]int{hi(ihi, d.DA.Mx), hi(jhi, d.DA.My), hi(khi, d.DA.Mz)},
	}
}

// Layout holds rank r's slice of the distributed vector layout.
type Layout struct {
	D    *Decomp
	Rank int

	Owned Box // nodes this rank owns (owned boxes partition the grid)
	Ext   Box // owned + ghost nodes: everything this rank's rows read

	Elems    []int // all local elements, in DA element-id order
	Interior []int // local elements whose 27 nodes are all owned
	Boundary []int // local elements touching at least one non-owned node

	// Neighbors lists the ranks this rank exchanges with (sorted). For
	// each neighbour n, Ghost[n] holds the nodes this rank reads that n
	// owns and Mirror[n] the nodes this rank owns that n reads; by
	// construction Ghost[n] here equals Mirror[this] on n, in the same
	// node-id order, so exchanges need no index payloads beyond the
	// packet's own node list.
	Neighbors []int
	Ghost     map[int][]int32
	Mirror    map[int][]int32

	ownedNodes []int32   // cached Owned enumeration (lazy)
	velSpans   []la.Span // cached VelSpans result (lazy)
}

// NewLayout computes rank r's layout under d.
func NewLayout(d *Decomp, r int) *Layout {
	l := &Layout{
		D: d, Rank: r,
		Owned: ownedBox(d, r),
		Ext:   extBox(d, r),
		Ghost: map[int][]int32{}, Mirror: map[int][]int32{},
	}
	ilo, ihi, jlo, jhi, klo, khi := d.ElementRange(r)
	for k := klo; k < khi; k++ {
		for j := jlo; j < jhi; j++ {
			for i := ilo; i < ihi; i++ {
				e := d.DA.ElemID(i, j, k)
				l.Elems = append(l.Elems, e)
				eb := Box{Lo: [3]int{2 * i, 2 * j, 2 * k}, Hi: [3]int{2*i + 3, 2*j + 3, 2*k + 3}}
				if intersect(eb, l.Owned).Count() == eb.Count() {
					l.Interior = append(l.Interior, e)
				} else {
					l.Boundary = append(l.Boundary, e)
				}
			}
		}
	}
	for _, n := range d.Neighbors(r) {
		g := l.nodeList(intersect(l.Ext, ownedBox(d, n)))
		m := l.nodeList(intersect(extBox(d, n), l.Owned))
		if len(g) == 0 && len(m) == 0 {
			continue
		}
		l.Neighbors = append(l.Neighbors, n)
		l.Ghost[n] = g
		l.Mirror[n] = m
	}
	return l
}

// nodeList enumerates the node ids of a box in (k,j,i) order.
func (l *Layout) nodeList(b Box) []int32 {
	if b.Empty() {
		return nil
	}
	out := make([]int32, 0, b.Count())
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				out = append(out, int32(l.D.DA.NodeID(i, j, k)))
			}
		}
	}
	return out
}

// OwnedNodes returns the node ids this rank owns (cached).
func (l *Layout) OwnedNodes() []int32 {
	if l.ownedNodes == nil {
		l.ownedNodes = l.nodeList(l.Owned)
	}
	return l.ownedNodes
}

// VelSpans returns the velocity-dof index windows of this rank's
// owned+ghost (Ext) node box — one span per contiguous run of dofs,
// adjacent rows merged (cached). These are the index ranges a
// rank-windowed Krylov solve must keep valid; everything outside them
// is another rank's territory and is never touched, which keeps
// per-rank BLAS-1 work and resident memory O(n/P) at high rank counts.
func (l *Layout) VelSpans() []la.Span {
	if l.velSpans != nil {
		return l.velSpans
	}
	b := l.Ext
	da := l.D.DA
	spans := make([]la.Span, 0, (b.Hi[2]-b.Lo[2])*(b.Hi[1]-b.Lo[1]))
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			spans = la.AppendSpan(spans, 3*(row+b.Lo[0]), 3*(row+b.Hi[0]))
		}
	}
	l.velSpans = spans
	return spans
}

// IdentityOwnedRows applies the Dirichlet identity y[d] = x[d] on the
// constrained velocity rows of the rank's owned node box.
func (l *Layout) IdentityOwnedRows(mask []bool, x, y []float64) {
	b := l.Owned
	da := l.D.DA
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				d := 3 * (row + i)
				for c := 0; c < 3; c++ {
					if mask[d+c] {
						y[d+c] = x[d+c]
					}
				}
			}
		}
	}
}

// DotVel returns this rank's partial inner product over the velocity
// dofs (3 per node) of its owned nodes. Summation runs in (k,j,i) node
// order, so the partial is deterministic for a fixed layout.
func (l *Layout) DotVel(x, y []float64) float64 {
	s := 0.0
	b := l.Owned
	da := l.D.DA
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				d0 := 3 * (row + i)
				s += x[d0]*y[d0] + x[d0+1]*y[d0+1] + x[d0+2]*y[d0+2]
			}
		}
	}
	return s
}
