package fem

import (
	"fmt"
	"slices"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// viscousLanes is the number of elements one call of the element-matrix
// kernel computes: the float64 lanes of an AVX2 register.
const viscousLanes = 4

// viscousInputs holds what the stiffness matrices of the viscous block of
// up to viscousLanes elements are computed from, element k in lane k of
// every entry: the layout of the AVX2 encoding (tensor_amd64.s), which
// computes every lane at once, while the Go body computes one lane at a
// time.
type viscousInputs struct {
	// g[3·(n·NQP+q)+c] is ∂N_n/∂x_c at quadrature point q, s[q] is
	// η·w·detJ there.
	g [3 * 27 * NQP][viscousLanes]float64
	s [NQP][viscousLanes]float64
}

// viscousMats holds the matrices the inputs of one viscousInputs make,
// lane by lane: entry [81·r+c][k] is entry (r, c) of element k's 81×81
// matrix, rows and columns ordered (node, component).
type viscousMats [81 * 81][viscousLanes]float64

// load fills lane with element e's inputs: geo is the problem's metric
// store, eta the element's 27 viscosities.
func (b *viscousInputs) load(lane int, geo []float64, e int, eta []float64) {
	for q := 0; q < NQP; q++ {
		jinv, detJ := geomAt(geo, e, q)
		b.s[q][lane] = eta[q] * W3[q] * detJ
		gq := &G27[q]
		for n := 0; n < 27; n++ {
			g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
			g := b.g[3*(n*NQP+q):]
			g[0][lane] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
			g[1][lane] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
			g[2][lane] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
		}
	}
}

// matrixGo is the Go body of the element matrix, one lane:
// A[(i,a)][(n,b)] = Σ_q η·w·detJ·(δ_ab ∇N_i·∇N_n + ∂N_i/∂x_b · ∂N_n/∂x_a).
// Each 3×3 block of a node pair (i, n) sums its quadrature points in
// order in nine accumulators: at point q, entry (a, b) adds
// (s·∂N_n/∂x_a)·∂N_i/∂x_b, then the diagonal entries add s·(∇N_i·∇N_n).
func (b *viscousInputs) matrixGo(ae *viscousMats, lane int) {
	g, s := &b.g, &b.s
	for i := 0; i < 27; i++ {
		for n := 0; n < 27; n++ {
			var a00, a01, a02, a10, a11, a12, a20, a21, a22 float64
			gi, gn := g[3*NQP*i:3*NQP*i+3*NQP], g[3*NQP*n:3*NQP*n+3*NQP]
			for q := 0; q < NQP; q++ {
				sq := s[q][lane]
				i0, i1, i2 := gi[3*q][lane], gi[3*q+1][lane], gi[3*q+2][lane]
				n0, n1, n2 := gn[3*q][lane], gn[3*q+1][lane], gn[3*q+2][lane]
				dot := sq * (i0*n0 + i1*n1 + i2*n2)
				ga := sq * n0
				a00 += ga * i0
				a01 += ga * i1
				a02 += ga * i2
				a00 += dot
				ga = sq * n1
				a10 += ga * i0
				a11 += ga * i1
				a12 += ga * i2
				a11 += dot
				ga = sq * n2
				a20 += ga * i0
				a21 += ga * i1
				a22 += ga * i2
				a22 += dot
			}
			r := ae[81*3*i+3*n:]
			r[0][lane], r[1][lane], r[2][lane] = a00, a01, a02
			r[81][lane], r[82][lane], r[83][lane] = a10, a11, a12
			r[162][lane], r[163][lane], r[164][lane] = a20, a21, a22
		}
	}
}

// vpattern describes the structured sparsity of a Q2 velocity-block row:
// for each grid node the coupled nodes form a dense box in index space.
type vpattern struct {
	ilo, ihi, jlo, jhi, klo, khi int
}

// nodePattern returns the coupled-node box of Q2 grid node (i,j,k):
// the union of nodes of all elements containing the node.
func nodePattern(p *Problem, i, j, k int) vpattern {
	da := p.DA
	rng := func(idx, m int) (lo, hi int) {
		if idx%2 == 1 {
			e := (idx - 1) / 2
			return 2 * e, 2*e + 2
		}
		elo, ehi := idx/2-1, idx/2
		if elo < 0 {
			elo = 0
		}
		if ehi > m-1 {
			ehi = m - 1
		}
		return 2 * elo, 2*ehi + 2
	}
	var v vpattern
	v.ilo, v.ihi = rng(i, da.Mx)
	v.jlo, v.jhi = rng(j, da.My)
	v.klo, v.khi = rng(k, da.Mz)
	return v
}

// ViscousAssembly computes the rows of a problem's viscous block A, or of
// its product A·P with a prolongation P onto the problem's nodes (fine
// velocity dofs × coarse dofs), the first factor of the Galerkin coarse
// operator Pᵀ·A·P. Both are built node plane by node plane from the
// element matrices of the at most two element layers that touch the
// plane. Only those two layers are held (the window), so A·P never needs
// A, and a matrix-free level hands its coarser level a Galerkin product
// without ever holding its own matrix.
//
// A row of A has the columns of its node's box (paper §III-D: between 81
// and 375 nonzeros, the pattern analytic from the structured topology),
// each entry summing its at most eight elements in colour order (the
// colour of element (ei, ej, ek) is (ek%2)<<2 | (ej%2)<<1 | ei%2), masked
// columns skipped and masked rows a unit diagonal. A row of A·P is that
// row times P in la.MatMulNumeric's visit order, zeros included, so A·P
// is la.MatMul(AssembleViscous(p), P) bit for bit, pattern and values.
type ViscousAssembly struct {
	p  *Problem
	pr *la.CSR // P; nil for A itself
	// A is the assembled matrix, A or A·P; Refresh overwrites A.Val in
	// place.
	A *la.CSR

	// window[ek%2] holds the matrices of element layer ek, element
	// (ei, ej) in lane t%viscousLanes of batch t/viscousLanes, t = ej·Mx+ei.
	// With P it is kept across refreshes; without, Refresh allocates it
	// and lets it go.
	window [2][]viscousMats
	in     []viscousInputs // per-chunk kernel inputs
	rows   []nodeRows      // per-chunk row scratch
}

// nodeRows is one chunk's scratch for the rows of one node: the first dof
// of every box node and, with P, the three component rows of A over the
// node box and la.MatMulNumeric's marker and work arrays over the coarse
// dofs, the work array holding the three rows' sums side by side.
type nodeRows struct {
	cols   [125]int
	a      [3][3 * 125]float64
	marker []int
	work   [][3]float64
}

// NewViscousAssembly derives the sparsity of the viscous block from the
// node boxes and computes its values from the problem's current
// coefficients and coordinates.
func NewViscousAssembly(p *Problem) *ViscousAssembly {
	s := &ViscousAssembly{p: p}
	s.pattern()
	s.Refresh()
	return s
}

// NewViscousAP derives the sparsity of A·P from the node boxes of A's
// rows and the pattern of P (count, then fill, sized exactly) and
// computes the values from the problem's current coefficients and
// coordinates.
func NewViscousAP(p *Problem, pr *la.CSR) (*ViscousAssembly, error) {
	if n := p.DA.NVelDOF(); pr.NRows != n {
		return nil, fmt.Errorf("fem: prolongation has %d rows for %d velocity dofs", pr.NRows, n)
	}
	s := &ViscousAssembly{p: p, pr: pr}
	s.pattern()
	s.Refresh()
	return s, nil
}

// AssembleViscous assembles the viscous block into a CSR matrix with
// symmetric Dirichlet elimination (constrained rows/columns removed, unit
// diagonal on constrained rows).
func AssembleViscous(p *Problem) *la.CSR {
	return NewViscousAssembly(p).A
}

// boxCols fills cols with the first dof of every node of box v, in row
// order, and returns their count.
func (s *ViscousAssembly) boxCols(v vpattern, cols *[125]int) int {
	t := 0
	for kk := v.klo; kk <= v.khi; kk++ {
		for jj := v.jlo; jj <= v.jhi; jj++ {
			for ii := v.ilo; ii <= v.ihi; ii++ {
				cols[t] = 3 * s.p.DA.NodeID(ii, jj, kk)
				t++
			}
		}
	}
	return t
}

// pattern builds the sorted pattern: the three component rows of a node
// share their columns, the dofs of the node box — or, with P, the union of
// P's rows at them, the columns la.MatMul's symbolic pass finds.
func (s *ViscousAssembly) pattern() {
	da, pr := s.p.DA, s.pr
	nn := da.NNodes()
	m := &la.CSR{NRows: 3 * nn, NCols: 3 * nn, RowPtr: make([]int, 3*nn+1)}
	if pr != nil {
		m.NCols = pr.NCols
	}
	// visit calls f with the columns of node n's rows, each once.
	visit := func(n int, cols *[125]int, marker []int, f func(j int)) {
		i, j, k := da.NodeIJK(n)
		for _, c := range cols[:s.boxCols(nodePattern(s.p, i, j, k), cols)] {
			for col := c; col < c+3; col++ {
				if pr == nil {
					f(col)
					continue
				}
				for kb := pr.RowPtr[col]; kb < pr.RowPtr[col+1]; kb++ {
					if jc := pr.ColInd[kb]; marker[jc] != n {
						marker[jc] = n
						f(jc)
					}
				}
			}
		}
	}
	nodes := func(body func(n int, cols *[125]int, marker []int)) {
		par.For(s.p.Workers, nn, func(lo, hi int) {
			var cols [125]int
			var marker []int
			if pr != nil {
				marker = make([]int, pr.NCols)
				for i := range marker {
					marker[i] = -1
				}
			}
			for n := lo; n < hi; n++ {
				body(n, &cols, marker)
			}
		})
	}
	nodes(func(n int, cols *[125]int, marker []int) {
		cnt := 0
		visit(n, cols, marker, func(int) { cnt++ })
		for a := 1; a <= 3; a++ {
			m.RowPtr[3*n+a] = cnt
		}
	})
	for r := 0; r < m.NRows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	m.ColInd = make([]int, m.RowPtr[m.NRows])
	m.Val = make([]float64, len(m.ColInd))
	nodes(func(n int, cols *[125]int, marker []int) {
		r0, r1 := m.RowPtr[3*n], m.RowPtr[3*n+1]
		pos := r0
		visit(n, cols, marker, func(j int) { m.ColInd[pos] = j; pos++ })
		row := m.ColInd[r0:r1]
		if pr != nil {
			slices.Sort(row)
		}
		copy(m.ColInd[r1:], row)
		copy(m.ColInd[m.RowPtr[3*n+2]:], row)
	})
	s.A = m
}

// Refresh recomputes the values from the problem's current coefficients
// and coordinates, one job over the node planes k = 0, 1, …: before plane
// 2·ek the matrices of element layer ek replace those of layer ek−2 in the
// window, then the plane's rows are computed, split over the workers. A
// row's arithmetic does not depend on the split, so the values are the
// same at any worker count.
func (s *ViscousAssembly) Refresh() {
	p := s.p
	da := p.DA
	nxy, nb := da.NPx*da.NPy, (da.Mx*da.My+viscousLanes-1)/viscousLanes
	if s.window[0] == nil {
		s.window[0], s.window[1] = make([]viscousMats, nb), make([]viscousMats, nb)
	}
	if s.pr == nil {
		// Held beside A between refreshes, the window would raise the
		// peak memory more than allocating it again costs in time.
		defer func() { s.window = [2][]viscousMats{} }()
	}
	workers := max(1, p.Workers)
	if len(s.rows) < workers {
		s.in = make([]viscousInputs, workers)
		s.rows = make([]nodeRows, workers)
	}
	if s.pr != nil {
		for c := range s.rows {
			r := &s.rows[c]
			if len(r.marker) != s.pr.NCols {
				r.marker, r.work = make([]int, s.pr.NCols), make([][3]float64, s.pr.NCols)
			}
			for i := range r.marker {
				r.marker[i] = -1
			}
		}
	}
	geo := p.geom()
	chunks := 0
	par.Phased(workers, 2*da.NPz, func(ph int) int {
		k := ph / 2
		switch {
		case ph%2 == 1:
			chunks = min(workers, nxy)
		case k%2 == 0 && k/2 < da.Mz:
			chunks = min(workers, nb)
		default:
			chunks = 0
		}
		return chunks
	}, func(ph, c int) {
		k := ph / 2
		if ph%2 == 0 {
			lo, hi := par.Chunk(c, chunks, nb)
			s.layer(geo, k/2, lo, hi, &s.in[c])
			return
		}
		lo, hi := par.Chunk(c, chunks, nxy)
		for t := lo; t < hi; t++ {
			s.node(t%da.NPx, t/da.NPx, k, &s.rows[c])
		}
	})
}

// layer computes the matrices of batches [lo, hi) of element layer ek
// into the window.
func (s *ViscousAssembly) layer(geo []float64, ek, lo, hi int, in *viscousInputs) {
	p := s.p
	nxy := p.DA.Mx * p.DA.My
	slot := s.window[ek%2]
	for b := lo; b < hi; b++ {
		n := min(viscousLanes, nxy-b*viscousLanes)
		for lane := 0; lane < n; lane++ {
			e := ek*nxy + b*viscousLanes + lane
			in.load(lane, geo, e, p.Eta[NQP*e:NQP*e+NQP])
		}
		in.matrices(&slot[b], n)
	}
}

// elemOf returns the element of parity par along one axis (m elements)
// that contains node index i.
func elemOf(i, m, par int) (int, bool) {
	e := (i - 1) / 2
	if i%2 == 0 {
		e = i/2 - (i/2+par)%2
	}
	return e, e >= 0 && e < m && e%2 == par
}

// node computes the three rows at node (i, j, k) of the plane in the
// window: A's straight into A.Val, or A's into the scratch and then their
// product with P.
func (s *ViscousAssembly) node(i, j, k int, sc *nodeRows) {
	p, pr, m := s.p, s.pr, s.A
	da := p.DA
	mask := p.BC.Mask
	n := da.NodeID(i, j, k)
	v := nodePattern(p, i, j, k)
	nx, ny := v.ihi-v.ilo+1, v.jhi-v.jlo+1
	nbox := s.boxCols(v, &sc.cols)
	var rows [3][]float64
	for a := range rows {
		if pr == nil {
			rows[a] = m.Val[m.RowPtr[3*n+a]:m.RowPtr[3*n+a+1]]
		} else {
			rows[a] = sc.a[a][:3*nbox]
		}
		clear(rows[a])
	}
	// A's rows: each entry adds its elements in colour order, one per
	// colour at most.
	for c := 0; c < 8; c++ {
		ei, okx := elemOf(i, da.Mx, c&1)
		ej, oky := elemOf(j, da.My, c>>1&1)
		ek, okz := elemOf(k, da.Mz, c>>2)
		if !okx || !oky || !okz {
			continue
		}
		t := ej*da.Mx + ei
		ae, lane := &s.window[ek%2][t/viscousLanes], t%viscousLanes
		li := 3*(3*(k-2*ek)+j-2*ej) + i - 2*ei
		// Where local node ln's three columns sit in the row, and which
		// of them are free.
		var off [27]int
		var free [27][3]bool
		for ln := range off {
			x, y, z := 2*ei+ln%3, 2*ej+ln/3%3, 2*ek+ln/9
			o := ((z-v.klo)*ny+y-v.jlo)*nx + x - v.ilo
			off[ln] = 3 * o
			for b := 0; b < 3; b++ {
				free[ln][b] = !mask[sc.cols[o]+b]
			}
		}
		for a := 0; a < 3; a++ {
			if mask[3*n+a] {
				continue
			}
			row := rows[a]
			arow := ae[(3*li+a)*81 : (3*li+a)*81+81]
			for ln, o := range &off {
				for b := 0; b < 3; b++ {
					if free[ln][b] {
						row[o+b] += arow[3*ln+b][lane]
					}
				}
			}
		}
	}
	diag := 3 * (((k-v.klo)*ny+j-v.jlo)*nx + i - v.ilo)
	for a := 0; a < 3; a++ {
		if mask[3*n+a] {
			rows[a][diag+a] = 1
		}
	}
	if pr == nil {
		return
	}
	// The rows times P, la.MatMulNumeric's loop. The three rows share
	// their columns, so they share its visit order and first visits too,
	// and run in one pass.
	for t, c := range sc.cols[:nbox] {
		for b := 0; b < 3; b++ {
			a0, a1, a2 := rows[0][3*t+b], rows[1][3*t+b], rows[2][3*t+b]
			for kb := pr.RowPtr[c+b]; kb < pr.RowPtr[c+b+1]; kb++ {
				jc, pv := pr.ColInd[kb], pr.Val[kb]
				w := &sc.work[jc]
				if sc.marker[jc] != n {
					sc.marker[jc] = n
					w[0], w[1], w[2] = a0*pv, a1*pv, a2*pv
				} else {
					w[0] += a0 * pv
					w[1] += a1 * pv
					w[2] += a2 * pv
				}
			}
		}
	}
	for a := 0; a < 3; a++ {
		r := 3*n + a
		for q := m.RowPtr[r]; q < m.RowPtr[r+1]; q++ {
			m.Val[q] = sc.work[m.ColInd[q]][a]
		}
	}
}

// Diagonal computes the diagonal of the viscous block matrix-free:
// d[(i,a)] = Σ_q η·w·detJ·(|∇N_i|² + (∂N_i/∂x_a)²), with 1 on constrained
// rows. It feeds the Jacobi-preconditioned Chebyshev smoother without ever
// assembling the operator.
func Diagonal(p *Problem, d la.Vec) {
	if len(d) != p.DA.NVelDOF() {
		panic("fem: Diagonal length mismatch")
	}
	geo := p.geom()
	p.apply(elemPass{kern: func(e int, _, _, de *[81]float64, _ *arena) {
		eta := p.Eta[NQP*e : NQP*e+NQP]
		*de = [81]float64{}
		for q := 0; q < NQP; q++ {
			jinv, detJ := geomAt(geo, e, q)
			s := eta[q] * W3[q] * detJ
			gq := &G27[q]
			for n := 0; n < 27; n++ {
				g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
				px := g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				py := g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				pz := g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
				norm := px*px + py*py + pz*pz
				de[3*n] += s * (norm + px*px)
				de[3*n+1] += s * (norm + py*py)
				de[3*n+2] += s * (norm + pz*pz)
			}
		}
	}}, zeroRows, nil, d)
	for r, m := range p.BC.Mask {
		if m {
			d[r] = 1
		}
	}
}
