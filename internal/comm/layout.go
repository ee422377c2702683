package comm

import "ptatin3d/internal/la"

// Layout is the per-rank node-ownership geometry of a Decomp, the basis
// of the rank-distributed vector layout (owned + ghost entries): which
// Q2 nodes this rank owns, which ghost nodes it reads from neighbours,
// and which owned nodes neighbours read from it. Each is a list of
// velocity-dof windows (la.Span) of an axis-aligned node box, in (k,j,i)
// order, so both sides of every exchange enumerate the same dofs in the
// same order: a packet carries values only, and a receiver checks it by
// its type and its value count.
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
	// each neighbour n, Ghost[n] holds the velocity-dof windows of the
	// nodes this rank reads that n owns and Mirror[n] those of the nodes
	// this rank owns that n reads. Both are windows of one box
	// intersection, so Ghost[n] here equals Mirror[this] on n, span for
	// span: a packet of values packed on one side's list unpacks on the
	// other's.
	Neighbors []int
	Ghost     map[int][]la.Span
	Mirror    map[int][]la.Span

	// cached VelSpans, OwnedSpans and PackedOwnedSpans (lazy)
	velSpans, ownedSpans, packedOwned []la.Span
}

// NewLayout computes rank r's layout under d.
func NewLayout(d *Decomp, r int) *Layout {
	l := &Layout{
		D: d, Rank: r,
		Owned: ownedBox(d, r),
		Ext:   extBox(d, r),
		Ghost: map[int][]la.Span{}, Mirror: map[int][]la.Span{},
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
		g := velSpans(d, intersect(l.Ext, ownedBox(d, n)))
		m := velSpans(d, intersect(extBox(d, n), l.Owned))
		if g == nil && m == nil {
			continue
		}
		l.Neighbors = append(l.Neighbors, n)
		l.Ghost[n] = g
		l.Mirror[n] = m
	}
	return l
}

// VelSpans returns the velocity-dof index windows of this rank's
// owned+ghost (Ext) node box — one span per contiguous run of dofs,
// adjacent rows merged (cached). These are the rows a rank-distributed
// solve keeps valid; everything outside them is another rank's territory
// and is never touched. The rank's Krylov vectors are stored packed on
// them (la.Vec.Pack), O(n/P) per rank; the V-cycle level vectors and the
// smoother's work vectors stay full length, windowed to them.
func (l *Layout) VelSpans() []la.Span {
	if l.velSpans == nil {
		l.velSpans = velSpans(l.D, l.Ext)
	}
	return l.velSpans
}

// OwnedSpans returns the velocity-dof windows of this rank's owned node
// box, in (k,j,i) order, adjacent rows merged (cached): the rows a rank
// computes, sums and ships to the coarse gather.
func (l *Layout) OwnedSpans() []la.Span {
	if l.ownedSpans == nil {
		l.ownedSpans = velSpans(l.D, l.Owned)
	}
	return l.ownedSpans
}

// PackedOwnedSpans returns OwnedSpans as offsets into a vector packed on
// VelSpans, span for span (cached): the owned rows of a rank's packed
// Krylov vectors.
func (l *Layout) PackedOwnedSpans() []la.Span {
	if l.packedOwned == nil {
		l.packedOwned = la.PackedSpans(l.OwnedSpans(), l.VelSpans())
	}
	return l.packedOwned
}

// velSpans returns the velocity dof spans of the node box b, one per node
// row in (k, j) order, adjacent rows merged; nil for an empty box.
func velSpans(d *Decomp, b Box) []la.Span {
	if b.Empty() {
		return nil
	}
	da := d.DA
	spans := make([]la.Span, 0, (b.Hi[2]-b.Lo[2])*(b.Hi[1]-b.Lo[1]))
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			row := (k*da.NPy + j) * da.NPx
			spans = la.AppendSpan(spans, 3*(row+b.Lo[0]), 3*(row+b.Hi[0]))
		}
	}
	return spans
}

// IdentityOwnedRows applies the Dirichlet identity y[d] = x[d] on the
// constrained velocity rows of the rank's owned node box.
func (l *Layout) IdentityOwnedRows(mask []bool, x, y []float64) {
	for _, sp := range l.OwnedSpans() {
		for d := sp.Lo; d < sp.Hi; d++ {
			if mask[d] {
				y[d] = x[d]
			}
		}
	}
}

// DotVel returns this rank's partial inner product over the velocity
// dofs (3 per node) of its owned nodes, of x and y packed on VelSpans.
// Summation runs node by node along PackedOwnedSpans, in (k,j,i) node
// order, so the partial is deterministic for a fixed layout.
func (l *Layout) DotVel(x, y []float64) float64 {
	s := 0.0
	for _, sp := range l.PackedOwnedSpans() {
		for d0 := sp.Lo; d0 < sp.Hi; d0 += 3 {
			s += x[d0]*y[d0] + x[d0+1]*y[d0+1] + x[d0+2]*y[d0+2]
		}
	}
	return s
}

// AXPYDotVel computes v += alpha*x on velocity vectors packed on VelSpans
// and returns the partial inner product of the updated v with y over the
// rank's owned nodes, in one sweep: bitwise the update followed by
// DotVel(v, y). Each owned node is updated and then summed with DotVel's
// expression, in DotVel's (k,j,i) order; the ghost entries between the
// owned runs are updated only. y may alias v or x.
func (l *Layout) AXPYDotVel(alpha float64, v, x, y []float64) float64 {
	axpy := func(lo, hi int) {
		w, u := v[lo:hi], x[lo:hi]
		for i := range w {
			w[i] += alpha * u[i]
		}
	}
	s, at := 0.0, 0
	for _, sp := range l.PackedOwnedSpans() {
		axpy(at, sp.Lo)
		for d0 := sp.Lo; d0 < sp.Hi; d0 += 3 {
			v[d0] += alpha * x[d0]
			v[d0+1] += alpha * x[d0+1]
			v[d0+2] += alpha * x[d0+2]
			s += v[d0]*y[d0] + v[d0+1]*y[d0+1] + v[d0+2]*y[d0+2]
		}
		at = sp.Hi
	}
	axpy(at, len(v))
	return s
}
