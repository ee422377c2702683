package la

import (
	"fmt"
	"sort"

	"ptatin3d/internal/par"
)

// CSR is a compressed-sparse-row matrix. Assembled operators (the "Asmb"
// variant of Table I, all Galerkin coarse-level operators, and every AMG
// level) are stored in this format.
type CSR struct {
	NRows, NCols int
	RowPtr       []int // len NRows+1
	ColInd       []int // len nnz, column indices, sorted within each row
	Val          []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// MulVec computes y = a*x.
func (a *CSR) MulVec(x, y Vec) {
	if len(x) != a.NCols || len(y) != a.NRows {
		panic(fmt.Sprintf("la: CSR MulVec shape mismatch (%dx%d)*%d->%d", a.NRows, a.NCols, len(x), len(y)))
	}
	for i := 0; i < a.NRows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColInd[k]]
		}
		y[i] = s
	}
}

// MulVecRange computes y[i0:i1] = (a*x)[i0:i1]. It is the row-partitioned
// kernel used by the worker-pool parallel SpMV.
func (a *CSR) MulVecRange(x, y Vec, i0, i1 int) {
	for i := i0; i < i1; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColInd[k]]
		}
		y[i] = s
	}
}

// MulVecPar computes y = a*x with rows partitioned over workers. It is
// THE shared worker-parallel SpMV: every assembled operator representation
// (the internal/op CSR backends, multigrid/AMG level operators)
// routes its application through here, so the row-parallel schedule and
// its telemetry live in exactly one place.
func (a *CSR) MulVecPar(x, y Vec, workers int) {
	if len(x) != a.NCols || len(y) != a.NRows {
		panic(fmt.Sprintf("la: CSR MulVecPar shape mismatch (%dx%d)*%d->%d", a.NRows, a.NCols, len(x), len(y)))
	}
	par.For(workers, a.NRows, func(lo, hi int) {
		a.MulVecRange(x, y, lo, hi)
	})
}

// Diag extracts the diagonal of a into d (which must have length NRows).
// Rows with no stored diagonal entry get 0.
func (a *CSR) Diag(d Vec) {
	if len(d) != a.NRows {
		panic("la: Diag length mismatch")
	}
	for i := 0; i < a.NRows; i++ {
		d[i] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColInd[k] == i {
				d[i] = a.Val[k]
				break
			}
		}
	}
}

// Transpose returns aᵀ as a new CSR matrix.
func (a *CSR) Transpose() *CSR {
	t := &CSR{NRows: a.NCols, NCols: a.NRows}
	t.RowPtr = make([]int, t.NRows+1)
	for _, j := range a.ColInd {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.NRows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	t.ColInd = make([]int, a.NNZ())
	t.Val = make([]float64, a.NNZ())
	next := make([]int, t.NRows)
	copy(next, t.RowPtr[:t.NRows])
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			p := next[j]
			t.ColInd[p] = i
			t.Val[p] = a.Val[k]
			next[j]++
		}
	}
	return t
}

// MatMul returns the sparse product a*b. It uses the classical Gustavson
// row-merge algorithm with a dense scatter workspace; this is the kernel
// behind Galerkin triple products RAP and smoothed-aggregation prolongator
// smoothing.
func MatMul(a, b *CSR) *CSR {
	if a.NCols != b.NRows {
		panic(fmt.Sprintf("la: MatMul shape mismatch (%dx%d)*(%dx%d)", a.NRows, a.NCols, b.NRows, b.NCols))
	}
	c := &CSR{NRows: a.NRows, NCols: b.NCols}
	c.RowPtr = make([]int, a.NRows+1)
	marker := make([]int, b.NCols)
	for i := range marker {
		marker[i] = -1
	}
	// Symbolic pass: count nnz per row.
	for i := 0; i < a.NRows; i++ {
		var cnt int
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			k := a.ColInd[ka]
			for kb := b.RowPtr[k]; kb < b.RowPtr[k+1]; kb++ {
				j := b.ColInd[kb]
				if marker[j] != i {
					marker[j] = i
					cnt++
				}
			}
		}
		c.RowPtr[i+1] = c.RowPtr[i] + cnt
	}
	nnz := c.RowPtr[a.NRows]
	c.ColInd = make([]int, nnz)
	c.Val = make([]float64, nnz)
	// Numeric pass.
	for i := range marker {
		marker[i] = -1
	}
	work := make([]float64, b.NCols)
	for i := 0; i < a.NRows; i++ {
		rowStart := c.RowPtr[i]
		pos := rowStart
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			k := a.ColInd[ka]
			av := a.Val[ka]
			for kb := b.RowPtr[k]; kb < b.RowPtr[k+1]; kb++ {
				j := b.ColInd[kb]
				if marker[j] != i {
					marker[j] = i
					c.ColInd[pos] = j
					work[j] = av * b.Val[kb]
					pos++
				} else {
					work[j] += av * b.Val[kb]
				}
			}
		}
		row := c.ColInd[rowStart:pos]
		sort.Ints(row)
		for p, j := range row {
			c.Val[rowStart+p] = work[j]
		}
	}
	return c
}

// MatMulNumeric recomputes the values of c = a*b into c's existing
// sparsity pattern, where c was produced by MatMul(a, b) with the same
// patterns of a and b (only values may have changed). The scatter
// accumulates per-row partial sums in the identical (ka, kb) visit order
// as MatMul, so the refreshed values are bit-identical to a rebuild —
// without the symbolic pass, allocation, or row sorting.
func MatMulNumeric(a, b, c *CSR) {
	if a.NCols != b.NRows || c.NRows != a.NRows || c.NCols != b.NCols {
		panic(fmt.Sprintf("la: MatMulNumeric shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.NRows, a.NCols, b.NRows, b.NCols, c.NRows, c.NCols))
	}
	marker := make([]int, b.NCols)
	for i := range marker {
		marker[i] = -1
	}
	work := make([]float64, b.NCols)
	for i := 0; i < a.NRows; i++ {
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			k := a.ColInd[ka]
			av := a.Val[ka]
			for kb := b.RowPtr[k]; kb < b.RowPtr[k+1]; kb++ {
				j := b.ColInd[kb]
				if marker[j] != i {
					marker[j] = i
					work[j] = av * b.Val[kb]
				} else {
					work[j] += av * b.Val[kb]
				}
			}
		}
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			c.Val[p] = work[c.ColInd[p]]
		}
	}
}

// RAP returns the Galerkin triple product pᵀ*a*p used to build coarse-level
// operators from a fine-level operator a and prolongator p.
func RAP(a, p *CSR) *CSR {
	ap := MatMul(a, p)
	pt := p.Transpose()
	return MatMul(pt, ap)
}

// Clone returns a deep copy of a.
func (a *CSR) Clone() *CSR {
	c := &CSR{NRows: a.NRows, NCols: a.NCols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColInd: append([]int(nil), a.ColInd...),
		Val:    append([]float64(nil), a.Val...),
	}
	return c
}

// At returns entry (i,j), or 0 if it is not stored. Binary search within
// the (sorted) row is used; this is a debugging/testing helper, not a
// performance path.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	k := sort.SearchInts(a.ColInd[lo:hi], j)
	if lo+k < hi && a.ColInd[lo+k] == j {
		return a.Val[lo+k]
	}
	return 0
}

// Builder accumulates (i,j,v) triplets and converts them to CSR, summing
// duplicates. Finite element assembly uses one Builder per matrix.
type Builder struct {
	nrows, ncols int
	rows         []map[int]float64
}

// NewBuilder returns a Builder for an nrows×ncols matrix.
func NewBuilder(nrows, ncols int) *Builder {
	return &Builder{nrows: nrows, ncols: ncols, rows: make([]map[int]float64, nrows)}
}

// Add accumulates v into entry (i,j).
func (b *Builder) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	if b.rows[i] == nil {
		b.rows[i] = make(map[int]float64, 96)
	}
	b.rows[i][j] += v
}

// Set overwrites entry (i,j) with v (used for Dirichlet rows).
func (b *Builder) Set(i, j int, v float64) {
	if b.rows[i] == nil {
		b.rows[i] = make(map[int]float64, 4)
	}
	b.rows[i][j] = v
}

// ToCSR converts the accumulated triplets to a CSR matrix with sorted rows.
// Entries with value exactly zero are kept (they may be structurally
// important, e.g. ILU(0) patterns from symbolic assembly).
func (b *Builder) ToCSR() *CSR {
	a := &CSR{NRows: b.nrows, NCols: b.ncols}
	a.RowPtr = make([]int, b.nrows+1)
	for i, r := range b.rows {
		a.RowPtr[i+1] = a.RowPtr[i] + len(r)
	}
	nnz := a.RowPtr[b.nrows]
	a.ColInd = make([]int, nnz)
	a.Val = make([]float64, nnz)
	cols := make([]int, 0, 512)
	for i, r := range b.rows {
		cols = cols[:0]
		for j := range r {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		p := a.RowPtr[i]
		for _, j := range cols {
			a.ColInd[p] = j
			a.Val[p] = r[j]
			p++
		}
	}
	return a
}

// AddScaled returns c = a + alpha·b for same-shaped CSR matrices, merging
// sparsity patterns. Used by smoothed aggregation to form the smoothed
// prolongator P = P0 - ω·(D⁻¹A)·P0.
func AddScaled(a, b *CSR, alpha float64) *CSR {
	if a.NRows != b.NRows || a.NCols != b.NCols {
		panic("la: AddScaled shape mismatch")
	}
	c := &CSR{NRows: a.NRows, NCols: a.NCols}
	c.RowPtr = make([]int, a.NRows+1)
	marker := make([]int, a.NCols)
	for i := range marker {
		marker[i] = -1
	}
	for i := 0; i < a.NRows; i++ {
		cnt := 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if marker[a.ColInd[k]] != i {
				marker[a.ColInd[k]] = i
				cnt++
			}
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			if marker[b.ColInd[k]] != i {
				marker[b.ColInd[k]] = i
				cnt++
			}
		}
		c.RowPtr[i+1] = c.RowPtr[i] + cnt
	}
	c.ColInd = make([]int, c.RowPtr[a.NRows])
	c.Val = make([]float64, c.RowPtr[a.NRows])
	for i := range marker {
		marker[i] = -1
	}
	work := make([]float64, a.NCols)
	for i := 0; i < a.NRows; i++ {
		pos := c.RowPtr[i]
		start := pos
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			if marker[j] != i {
				marker[j] = i
				c.ColInd[pos] = j
				work[j] = a.Val[k]
				pos++
			} else {
				work[j] += a.Val[k]
			}
		}
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			j := b.ColInd[k]
			if marker[j] != i {
				marker[j] = i
				c.ColInd[pos] = j
				work[j] = alpha * b.Val[k]
				pos++
			} else {
				work[j] += alpha * b.Val[k]
			}
		}
		row := c.ColInd[start:pos]
		sort.Ints(row)
		for p, j := range row {
			c.Val[start+p] = work[j]
		}
	}
	return c
}

// ScaleRows multiplies row i of a by s[i] in place (a ← diag(s)·a).
func (a *CSR) ScaleRows(s Vec) {
	if len(s) != a.NRows {
		panic("la: ScaleRows length mismatch")
	}
	for i := 0; i < a.NRows; i++ {
		si := s[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= si
		}
	}
}
