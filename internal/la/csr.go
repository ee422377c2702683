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
	if workers <= 1 {
		a.MulVecRange(x, y, 0, a.NRows)
		return
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
func (a *CSR) Transpose() *CSR { return a.TransposeInto(&CSR{}) }

// TransposeInto writes aᵀ into t, reusing t's storage where its capacity
// holds it, and returns t; t must not be a.
func (a *CSR) TransposeInto(t *CSR) *CSR {
	t.NRows, t.NCols = a.NCols, a.NRows
	t.RowPtr = Resized(t.RowPtr, t.NRows+1)
	clear(t.RowPtr)
	for _, j := range a.ColInd {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.NRows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	t.ColInd = Resized(t.ColInd, a.NNZ())
	t.Val = Resized(t.Val, a.NNZ())
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
func MatMul(a, b *CSR) *CSR { return MatMulInto(&CSR{}, a, b) }

// MatMulInto writes the product a*b into c, reusing c's storage where its
// capacity holds the product, and returns c: bitwise MatMul(a, b). c must
// be neither a nor b.
func MatMulInto(c, a, b *CSR) *CSR { return ScaledMatMulInto(c, nil, a, b) }

// ScaledMatMulInto is MatMulInto of diag(s)·a and b, row i of a scaled by
// s[i] as the product reads it: bitwise MatMul of a copy of a whose rows
// were scaled in place (a_ik·s_i rounded, then times b_kj), with no copy
// made. A nil s scales nothing.
func ScaledMatMulInto(c *CSR, s Vec, a, b *CSR) *CSR {
	if a.NCols != b.NRows {
		panic(fmt.Sprintf("la: MatMul shape mismatch (%dx%d)*(%dx%d)", a.NRows, a.NCols, b.NRows, b.NCols))
	}
	c.NRows, c.NCols = a.NRows, b.NCols
	c.RowPtr = Resized(c.RowPtr, a.NRows+1)
	c.RowPtr[0] = 0
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
	c.ColInd = Resized(c.ColInd, nnz)
	c.Val = Resized(c.Val, nnz)
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
			if s != nil {
				av *= s[i]
			}
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
// without the symbolic pass, allocation, or row sorting. Rows are split
// over workers, each chunk with its own marker/work pair; a row's
// arithmetic does not depend on the split.
func MatMulNumeric(a, b, c *CSR, workers int) {
	if a.NCols != b.NRows || c.NRows != a.NRows || c.NCols != b.NCols {
		panic(fmt.Sprintf("la: MatMulNumeric shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.NRows, a.NCols, b.NRows, b.NCols, c.NRows, c.NCols))
	}
	par.For(workers, a.NRows, func(lo, hi int) {
		marker := make([]int, b.NCols)
		for i := range marker {
			marker[i] = -1
		}
		work := make([]float64, b.NCols)
		for i := lo; i < hi; i++ {
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
	})
}

// RAPInto writes the Galerkin triple product pᵀ*a*p, the coarse-level
// operator of a fine-level operator a and prolongator p, into c, and the
// intermediate products a*p and pᵀ into ap and pt, reusing the storage of
// all three where it has the room; it returns c. The four matrices must
// be distinct from a and p.
func RAPInto(c, a, p, ap, pt *CSR) *CSR {
	MatMulInto(ap, a, p)
	p.TransposeInto(pt)
	return MatMulInto(c, pt, ap)
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
// duplicates. Finite element assembly uses one Builder per matrix. Each
// row is held as its entries in ascending column order, so a row costs
// what it stores and ToCSR only copies.
type Builder struct {
	nrows, ncols int
	rows         [][]builderEntry
}

// builderEntry is one stored entry of a Builder row.
type builderEntry struct {
	j int
	v float64
}

// NewBuilder returns a Builder for an nrows×ncols matrix.
func NewBuilder(nrows, ncols int) *Builder {
	return &Builder{nrows: nrows, ncols: ncols, rows: make([][]builderEntry, nrows)}
}

// entry returns the entry (i,j), inserted with value 0 if it is not
// stored yet.
func (b *Builder) entry(i, j int) *builderEntry {
	r := b.rows[i]
	lo, hi := 0, len(r)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); r[m].j < j {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(r) || r[lo].j != j {
		if r == nil {
			r = make([]builderEntry, 0, 8)
		}
		r = append(r, builderEntry{})
		copy(r[lo+1:], r[lo:])
		r[lo] = builderEntry{j: j}
		b.rows[i] = r
	}
	return &r[lo]
}

// Add accumulates v into entry (i,j). A zero v stores nothing.
func (b *Builder) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	b.entry(i, j).v += v
}

// Set overwrites entry (i,j) with v (used for Dirichlet rows).
func (b *Builder) Set(i, j int, v float64) { b.entry(i, j).v = v }

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
	for i, r := range b.rows {
		p := a.RowPtr[i]
		for k, e := range r {
			a.ColInd[p+k], a.Val[p+k] = e.j, e.v
		}
	}
	return a
}

// AddScaledInto writes c = a + alpha·b for same-shaped CSR matrices,
// merging sparsity patterns, into c, reusing c's storage where its
// capacity holds the sum, and returns c; c must be neither a nor b. Used
// by smoothed aggregation to form the smoothed prolongator
// P = P0 - ω·(D⁻¹A)·P0.
func AddScaledInto(c, a, b *CSR, alpha float64) *CSR {
	if a.NRows != b.NRows || a.NCols != b.NCols {
		panic("la: AddScaled shape mismatch")
	}
	c.NRows, c.NCols = a.NRows, a.NCols
	c.RowPtr = Resized(c.RowPtr, a.NRows+1)
	c.RowPtr[0] = 0
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
	c.ColInd = Resized(c.ColInd, c.RowPtr[a.NRows])
	c.Val = Resized(c.Val, c.RowPtr[a.NRows])
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
