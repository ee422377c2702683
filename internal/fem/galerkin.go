package fem

import (
	"fmt"
	"slices"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// ViscousAP is the product A·P of a problem's viscous block A and a
// prolongation P onto its nodes (fine velocity dofs × coarse dofs), the
// first factor of the Galerkin coarse operator Pᵀ·A·P, computed without
// A: node plane by node plane, from the element matrices of the at most
// two element layers that touch the plane. Only those two layers are
// kept (the window), so a matrix-free level hands its coarser level a
// Galerkin product without ever holding its own matrix.
//
// AP is la.MatMul(AssembleViscous(p), P) bit for bit, pattern and values.
// A row of A is rebuilt in AssembleViscous's column order (the node box,
// then the component), each entry summing its at most eight elements in
// the colour order in which ViscousAssembly.Refresh's scatter adds them,
// masked columns skipped and masked rows a unit diagonal; the row is then
// multiplied by P in la.MatMulNumeric's visit order, zeros included.
type ViscousAP struct {
	p  *Problem
	pr *la.CSR
	// AP is the product; Refresh overwrites AP.Val in place.
	AP *la.CSR

	// window[ek%2] holds the matrices of element layer ek, element
	// (ei, ej) in lane t%viscousLanes of batch t/viscousLanes, t = ej·Mx+ei.
	window [2][]viscousMats
	in     []viscousInputs // per-chunk kernel inputs
	rows   []apRows        // per-chunk row scratch
}

// apRows is one chunk's scratch for the rows of one node: the three
// component rows of A over the node box, the first dof of every box node,
// and la.MatMulNumeric's marker and work arrays over the coarse dofs, the
// work array holding the three rows' sums side by side.
type apRows struct {
	a      [3][3 * 125]float64
	cols   [125]int
	marker []int
	work   [][3]float64
}

// NewViscousAP derives the sparsity of A·P from the structured node boxes
// of A's rows and the pattern of P (count, then fill, sized exactly) and
// computes the values from the problem's current coefficients and
// coordinates.
func NewViscousAP(p *Problem, pr *la.CSR) (*ViscousAP, error) {
	if n := p.DA.NVelDOF(); pr.NRows != n {
		return nil, fmt.Errorf("fem: prolongation has %d rows for %d velocity dofs", pr.NRows, n)
	}
	da := p.DA
	nb := (da.Mx*da.My + viscousLanes - 1) / viscousLanes
	s := &ViscousAP{p: p, pr: pr}
	s.window[0], s.window[1] = make([]viscousMats, nb), make([]viscousMats, nb)
	s.pattern()
	s.Refresh()
	return s, nil
}

// boxCols fills cols with the first dof of every node of box v, in row
// order, and returns their count.
func (s *ViscousAP) boxCols(v vpattern, cols *[125]int) int {
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

// pattern builds AP's sorted pattern: the three component rows of a node
// share A's columns, so they share the union of P's rows at them — the
// columns la.MatMul's symbolic pass finds.
func (s *ViscousAP) pattern() {
	da, pr := s.p.DA, s.pr
	nn := da.NNodes()
	ap := &la.CSR{NRows: 3 * nn, NCols: pr.NCols, RowPtr: make([]int, 3*nn+1)}
	// visit calls f with the coarse columns of node n's rows, each once.
	visit := func(n int, cols *[125]int, marker []int, f func(j int)) {
		i, j, k := da.NodeIJK(n)
		for _, c := range cols[:s.boxCols(nodePattern(s.p, i, j, k), cols)] {
			for col := c; col < c+3; col++ {
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
			marker := make([]int, pr.NCols)
			for i := range marker {
				marker[i] = -1
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
			ap.RowPtr[3*n+a] = cnt
		}
	})
	for r := 0; r < ap.NRows; r++ {
		ap.RowPtr[r+1] += ap.RowPtr[r]
	}
	ap.ColInd = make([]int, ap.RowPtr[ap.NRows])
	ap.Val = make([]float64, len(ap.ColInd))
	nodes(func(n int, cols *[125]int, marker []int) {
		r0, r1 := ap.RowPtr[3*n], ap.RowPtr[3*n+1]
		pos := r0
		visit(n, cols, marker, func(j int) { ap.ColInd[pos] = j; pos++ })
		row := ap.ColInd[r0:r1]
		slices.Sort(row)
		copy(ap.ColInd[r1:], row)
		copy(ap.ColInd[ap.RowPtr[3*n+2]:], row)
	})
	s.AP = ap
}

// Refresh recomputes AP's values from the problem's current coefficients
// and coordinates, one job over the node planes k = 0, 1, …: before plane
// 2·ek the matrices of element layer ek replace those of layer ek−2 in the
// window, then the plane's rows are computed, split over the workers. A
// row's arithmetic does not depend on the split, so the values are the
// same at any worker count.
func (s *ViscousAP) Refresh() {
	p := s.p
	da := p.DA
	nxy, nb := da.NPx*da.NPy, len(s.window[0])
	workers := max(1, p.Workers)
	if len(s.rows) < workers {
		s.in = make([]viscousInputs, workers)
		s.rows = make([]apRows, workers)
	}
	for c := range s.rows {
		r := &s.rows[c]
		if len(r.marker) != s.pr.NCols {
			r.marker, r.work = make([]int, s.pr.NCols), make([][3]float64, s.pr.NCols)
		}
		for i := range r.marker {
			r.marker[i] = -1
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
func (s *ViscousAP) layer(geo []float64, ek, lo, hi int, in *viscousInputs) {
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

// node computes the three rows of AP at node (i, j, k) of the plane in
// the window.
func (s *ViscousAP) node(i, j, k int, sc *apRows) {
	p, pr, ap := s.p, s.pr, s.AP
	da := p.DA
	mask := p.BC.Mask
	n := da.NodeID(i, j, k)
	v := nodePattern(p, i, j, k)
	nx, ny := v.ihi-v.ilo+1, v.jhi-v.jlo+1
	nbox := s.boxCols(v, &sc.cols)
	for a := range sc.a {
		clear(sc.a[a][:3*nbox])
	}
	// A's rows: each entry adds its elements in colour order (the colour
	// of element (ei, ej, ek) is (ek%2)<<2 | (ej%2)<<1 | ei%2), one per
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
			row := &sc.a[a]
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
			sc.a[a][diag+a] = 1
		}
	}
	// The rows times P, la.MatMulNumeric's loop. The three rows share
	// their columns, so they share its visit order and first visits too,
	// and run in one pass.
	for t, c := range sc.cols[:nbox] {
		for b := 0; b < 3; b++ {
			a0, a1, a2 := sc.a[0][3*t+b], sc.a[1][3*t+b], sc.a[2][3*t+b]
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
		for q := ap.RowPtr[r]; q < ap.RowPtr[r+1]; q++ {
			ap.Val[q] = sc.work[ap.ColInd[q]][a]
		}
	}
}
