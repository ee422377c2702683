package op

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// builderAugment is the Builder construction galerkinOp.augment replaced:
// Add every raw entry (zeros skipped), Set a unit diagonal on each
// constrained row, ToCSR.
func builderAugment(raw *la.CSR, mask []bool) *la.CSR {
	b := la.NewBuilder(raw.NRows, raw.NCols)
	for r := 0; r < raw.NRows; r++ {
		for k := raw.RowPtr[r]; k < raw.RowPtr[r+1]; k++ {
			b.Add(r, raw.ColInd[k], raw.Val[k])
		}
		if mask[r] {
			b.Set(r, r, 1)
		}
	}
	return b.ToCSR()
}

// randomRaw draws a square CSR with sorted rows, some empty rows, some
// exact zeros, and diagonals present, absent or zero.
func randomRaw(rng *rand.Rand, n int) *la.CSR {
	a := &la.CSR{NRows: n, NCols: n, RowPtr: make([]int, n+1)}
	for r := 0; r < n; r++ {
		if rng.Intn(8) > 0 {
			for c := 0; c < n; c++ {
				if rng.Intn(3) > 0 {
					continue
				}
				v := rng.NormFloat64()
				if rng.Intn(4) == 0 {
					v = 0
				}
				a.ColInd, a.Val = append(a.ColInd, c), append(a.Val, v)
			}
		}
		a.RowPtr[r+1] = len(a.Val)
	}
	return a
}

func sameCSR(a, b *la.CSR) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.Val) != len(b.Val) || len(a.ColInd) != len(b.ColInd) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Val {
		if a.ColInd[k] != b.ColInd[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestAugmentMatchesBuilder: the served matrix is bitwise the Builder's,
// on random raw products and constraint masks, augmentation after
// augmentation; each augmentation serves a new matrix object, so a
// consumer comparing pointers sees every new pattern; and the raw→served
// map replays the values as Refresh does.
func TestAugmentMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 40; n += 3 {
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = rng.Intn(3) == 0
		}
		o := &galerkinOp{env: Env{Prob: &fem.Problem{BC: &mesh.BC{Mask: mask}}}}
		for round := 0; round < 4; round++ {
			o.raw = randomRaw(rng, n)
			prev := o.a
			o.augment()
			if want := builderAugment(o.raw, mask); !sameCSR(o.a, want) {
				t.Fatalf("n=%d round %d: augmented matrix differs from the Builder's", n, round)
			}
			if o.a == prev {
				t.Fatalf("n=%d round %d: a new pattern was served in the old matrix object", n, round)
			}
			// Refresh's replay on new values of the same zero pattern.
			for k, v := range o.raw.Val {
				if v != 0 {
					o.raw.Val[k] = rng.NormFloat64()
				}
			}
			if !o.zeroPatternUnchanged() {
				continue
			}
			for k, pos := range o.rawToAug {
				if pos >= 0 {
					o.a.Val[pos] = o.raw.Val[k]
				}
			}
			for _, pos := range o.augDiag {
				o.a.Val[pos] = 1
			}
			if want := builderAugment(o.raw, mask); !sameCSR(o.a, want) {
				t.Fatalf("n=%d round %d: replayed values differ from the Builder's", n, round)
			}
		}
	}
}
