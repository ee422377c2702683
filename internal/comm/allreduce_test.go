package comm

import (
	"math"
	"sync"
	"testing"
)

// arValue is the deterministic per-rank contribution used by the tree
// allreduce tests: distinguishable across ranks, slots and rounds, and
// irrational enough that summation-order changes would flip bits.
func arValue(rank, slot, round int) float64 {
	return math.Sin(float64(1+rank)*1.7+float64(slot)*0.31) * math.Exp2(float64(round%7-3))
}

// TestAllReduceSumVecMatchesSerialGather: the binomial tree must return,
// on every rank, exactly the left-associated ascending-rank sum — the
// summation order of the legacy serial gather — for every world size
// (power of two or not) and batch width.
func TestAllReduceSumVecMatchesSerialGather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13, 16} {
		for _, width := range []int{1, 3, 7} {
			want := make([]float64, width)
			for rank := 0; rank < size; rank++ { // ascending, left-associated
				for i := 0; i < width; i++ {
					want[i] += arValue(rank, i, 0)
				}
			}
			results := make([][]float64, size)
			w := NewWorld(size)
			w.Run(func(r *Rank) {
				d := &Dist{R: r}
				x := make([]float64, width)
				for i := range x {
					x[i] = arValue(r.ID, i, 0)
				}
				got, err := d.AllReduceSumVec(x)
				if err != nil {
					t.Errorf("size %d width %d: rank %d: %v", size, width, r.ID, err)
					return
				}
				// Mutating the returned slice must not leak to any other
				// rank (the tree shares blocks read-only internally).
				got2 := append([]float64(nil), got...)
				for i := range got {
					got[i] = -1e300
				}
				results[r.ID] = got2
			})
			if t.Failed() {
				return
			}
			for rank := 0; rank < size; rank++ {
				for i := 0; i < width; i++ {
					if math.Float64bits(results[rank][i]) != math.Float64bits(want[i]) {
						t.Fatalf("size %d width %d: rank %d slot %d: got %x want %x",
							size, width, rank, i,
							math.Float64bits(results[rank][i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestAllReduceSumMatchesVec: the scalar wrapper is the width-1 tree.
func TestAllReduceSumMatchesVec(t *testing.T) {
	const size = 6
	var mu sync.Mutex
	vals := map[int]float64{}
	var want float64
	for rank := 0; rank < size; rank++ {
		want += arValue(rank, 0, 1)
	}
	w := NewWorld(size)
	w.Run(func(r *Rank) {
		d := &Dist{R: r}
		got, err := d.AllReduceSum(arValue(r.ID, 0, 1))
		if err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
		mu.Lock()
		vals[r.ID] = got
		mu.Unlock()
	})
	for rank := 0; rank < size; rank++ {
		if math.Float64bits(vals[rank]) != math.Float64bits(want) {
			t.Fatalf("rank %d: got %v want %v", rank, vals[rank], want)
		}
	}
}
