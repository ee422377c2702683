package la

import (
	"math"
	"sort"
	"testing"
)

// mapBuilder is the Builder as it was with one map per row: the oracle
// of the sorted-row Builder.
type mapBuilder struct {
	nrows, ncols int
	rows         []map[int]float64
}

func newMapBuilder(nrows, ncols int) *mapBuilder {
	return &mapBuilder{nrows: nrows, ncols: ncols, rows: make([]map[int]float64, nrows)}
}

func (b *mapBuilder) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	if b.rows[i] == nil {
		b.rows[i] = map[int]float64{}
	}
	b.rows[i][j] += v
}

func (b *mapBuilder) Set(i, j int, v float64) {
	if b.rows[i] == nil {
		b.rows[i] = map[int]float64{}
	}
	b.rows[i][j] = v
}

func (b *mapBuilder) ToCSR() *CSR {
	a := &CSR{NRows: b.nrows, NCols: b.ncols, RowPtr: make([]int, b.nrows+1)}
	for i, r := range b.rows {
		cols := make([]int, 0, len(r))
		for j := range r {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		for _, j := range cols {
			a.ColInd = append(a.ColInd, j)
			a.Val = append(a.Val, r[j])
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// builderValues is the palette a fuzz input picks its values from: zeros
// of both signs, pairs that cancel exactly, sums that round, and the
// infinities.
var builderValues = [...]float64{0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 0.3, -0.3, 1e300, -1e300, 1e-300, 3, math.Inf(1), math.Inf(-1), -2.5, 7e-17}

// FuzzBuilder: a random sequence of Add and Set calls, with duplicates,
// zeros and exact cancellations, gives bitwise the pattern and values of
// the map-per-row Builder: sums in Add order from 0, no entry for a zero
// Add, an entry that cancels to 0 kept, Set overwriting, rows sorted.
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 0, 1, 2, 0, 0, 1, 3, 1, 2, 2, 0, 0, 1, 0, 1})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 7})
	f.Add(uint8(5), uint8(7), []byte{1, 4, 6, 0, 0, 4, 6, 2, 0, 4, 6, 3, 0, 2, 0, 12, 0, 2, 0, 13, 1, 0, 0, 9})
	f.Fuzz(func(t *testing.T, nr, nc uint8, ops []byte) {
		nrows, ncols := int(nr%16)+1, int(nc%16)+1
		got, want := NewBuilder(nrows, ncols), newMapBuilder(nrows, ncols)
		for ; len(ops) >= 4; ops = ops[4:] {
			i, j := int(ops[1])%nrows, int(ops[2])%ncols
			v := builderValues[int(ops[3])%len(builderValues)]
			if ops[0]%4 == 0 {
				got.Set(i, j, v)
				want.Set(i, j, v)
			} else {
				got.Add(i, j, v)
				want.Add(i, j, v)
			}
		}
		a, b := got.ToCSR(), want.ToCSR()
		if a.NRows != b.NRows || a.NCols != b.NCols {
			t.Fatalf("shape %dx%d, want %dx%d", a.NRows, a.NCols, b.NRows, b.NCols)
		}
		for i := range b.RowPtr {
			if a.RowPtr[i] != b.RowPtr[i] {
				t.Fatalf("RowPtr[%d] = %d, want %d", i, a.RowPtr[i], b.RowPtr[i])
			}
		}
		for k := range b.Val {
			if a.ColInd[k] != b.ColInd[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
				t.Fatalf("entry %d = (%d, %v), want (%d, %v)", k, a.ColInd[k], a.Val[k], b.ColInd[k], b.Val[k])
			}
		}
	})
}
