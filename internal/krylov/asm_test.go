package krylov

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// refASM is the serial, map-based restricted additive Schwarz that ASM
// replaced, kept as its reference: subdomains grown through a set,
// submatrices through la.ExtractSubmatrix (which drops exact zeros), one
// subdomain after the other in Apply, each solved in full.
type refASM struct {
	rows [][]int
	base [][]bool
	ilu  []*la.ILU0
}

func newRefASM(t *testing.T, a *la.CSR, opt ASMOptions) *refASM {
	t.Helper()
	n := a.NRows
	nsub := min(max(1, opt.Subdomains), n)
	ref := &refASM{}
	chunk := (n + nsub - 1) / nsub
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		inSet := make(map[int]bool)
		var frontier []int
		for i := lo; i < hi; i++ {
			inSet[i] = true
			frontier = append(frontier, i)
		}
		for lvl := 0; lvl < opt.Overlap && len(frontier) > 0; lvl++ {
			var next []int
			for _, i := range frontier {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					if j := a.ColInd[k]; !inSet[j] {
						inSet[j] = true
						next = append(next, j)
					}
				}
			}
			frontier = next
		}
		rows := make([]int, 0, len(inSet))
		for i := range inSet {
			rows = append(rows, i)
		}
		sort.Ints(rows)
		base := make([]bool, len(rows))
		for l, g := range rows {
			base[l] = g >= lo && g < hi
		}
		f, err := la.NewILU0(la.ExtractSubmatrix(a, rows))
		if err != nil {
			t.Fatal(err)
		}
		ref.rows = append(ref.rows, rows)
		ref.base = append(ref.base, base)
		ref.ilu = append(ref.ilu, f)
	}
	return ref
}

func (ref *refASM) Apply(r, z la.Vec) {
	z.Zero()
	for s, rows := range ref.rows {
		rl, zl := la.NewVec(len(rows)), la.NewVec(len(rows))
		for l, g := range rows {
			rl[l] = r[g]
		}
		ref.ilu[s].Solve(rl, zl)
		for l, g := range rows {
			if ref.base[s][l] {
				z[g] = zl[l]
			}
		}
	}
}

// lapStoredZeros is lap3d(n) with variable coefficients and, on the listed
// off-diagonal stencil entries, a stored value of exactly zero: the case
// in which a subdomain's ILU(0) pattern is not the structural one.
func lapStoredZeros(n int, seed int64, zero func(r, c int) bool) *la.CSR {
	a := lap3d(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch j := a.ColInd[k]; {
			case j == i:
				a.Val[k] = 6 + rng.Float64()
			case zero(i, j):
				a.Val[k] = 0
			default:
				a.Val[k] = -0.5 - 0.5*rng.Float64()
			}
		}
	}
	return a
}

func sameBits(t *testing.T, what string, got, want la.Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d differs bitwise: %x vs %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestASMParallelMatchesSerial: set-up and Apply on any worker count equal
// the serial map-based reference bitwise, with stored zeros in the matrix,
// and a second Apply on the same instance (reused work vectors) repeats
// the first.
func TestASMParallelMatchesSerial(t *testing.T) {
	a := lapStoredZeros(7, 3, func(r, c int) bool { return (r+c)%5 == 0 })
	rng := rand.New(rand.NewSource(21))
	r := randVec(rng, a.NRows)
	opt := ASMOptions{Subdomains: 8, Overlap: 2}
	want := la.NewVec(a.NRows)
	newRefASM(t, a, opt).Apply(r, want)
	for _, w := range []int{1, 2, 3, 8} {
		opt.Workers = w
		asm, err := NewASM(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			got := la.NewVec(a.NRows)
			got.Set(math.NaN())
			asm.Apply(r, got)
			sameBits(t, fmt.Sprintf("workers=%d apply %d", w, rep), got, want)
		}
	}
}

// TestASMRefreshMatchesNew: after the matrix values change on a fixed
// sparsity pattern, Refresh equals a fresh NewASM bitwise — when the
// nonzeros stay where they were (every subdomain refactored in place: no
// subdomain enters the marks) and when exact zeros appear and disappear
// (subdomain patterns gathered again through the marks).
func TestASMRefreshMatchesNew(t *testing.T) {
	zeroA := func(r, c int) bool { return (r+c)%5 == 0 }
	zeroB := func(r, c int) bool { return (r*c)%7 == 3 }
	steps := []struct {
		name string
		next *la.CSR
	}{
		{"same nonzero pattern", lapStoredZeros(7, 4, zeroA)},
		{"zeros moved", lapStoredZeros(7, 5, zeroB)},
		{"same again", lapStoredZeros(7, 6, zeroB)},
	}
	rng := rand.New(rand.NewSource(22))
	r := randVec(rng, steps[0].next.NRows)
	for _, w := range []int{1, 3} {
		a := lapStoredZeros(7, 3, zeroA)
		opt := ASMOptions{Subdomains: 8, Overlap: 2, Workers: w}
		asm, err := NewASM(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			// The solver's matrix is refreshed in place: same arrays.
			copy(a.Val, st.next.Val)
			stamps := markStamps(asm)
			if err := asm.Refresh(a); err != nil {
				t.Fatal(err)
			}
			if kept := markStamps(asm) == stamps; (st.name != "zeros moved") != kept {
				t.Fatalf("%s: every subdomain refactored in place = %v", st.name, kept)
			}
			fresh, err := NewASM(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, want := la.NewVec(a.NRows), la.NewVec(a.NRows)
			asm.Apply(r, got)
			fresh.Apply(r, want)
			sameBits(t, fmt.Sprintf("workers=%d %s", w, st.name), got, want)
		}
	}
}

// markStamps sums the stamps of asm's marks: it advances once for every
// subdomain whose pattern a set-up gathers again.
func markStamps(asm *ASM) int {
	n := 0
	for _, m := range asm.marks {
		if m != nil {
			n += m.stamp
		}
	}
	return n
}

// TestASMRestrictedPartialSweepBitwise: restricted Schwarz stops each
// subdomain's ILU(0) back-sweep at the first base row and still returns
// the bits of the reference, which solves every subdomain in full.
func TestASMRestrictedPartialSweepBitwise(t *testing.T) {
	a := lapStoredZeros(7, 9, func(r, c int) bool { return (r+c)%5 == 0 })
	rng := rand.New(rand.NewSource(23))
	r := randVec(rng, a.NRows)
	opt := ASMOptions{Subdomains: 8, Overlap: 2, Workers: 2}
	asm, err := NewASM(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, want := la.NewVec(a.NRows), la.NewVec(a.NRows)
	asm.Apply(r, got)
	newRefASM(t, a, opt).Apply(r, want)
	sameBits(t, "restricted", got, want)

	// What Apply left in each subdomain's solution vector against a full
	// solve of the same right-hand side.
	skipped := 0
	chunk := (a.NRows + opt.Subdomains - 1) / opt.Subdomains
	for s := range asm.subs {
		sub := &asm.subs[s]
		lo, hi := s*chunk, min((s+1)*chunk, a.NRows)
		if sub.last-sub.first != hi-lo || sub.rows[sub.first] != lo || sub.rows[sub.last-1] != hi-1 {
			t.Fatalf("subdomain %d: local base range [%d,%d) is not global [%d,%d)", s, sub.first, sub.last, lo, hi)
		}
		full := la.NewVec(len(sub.rows))
		sub.ilu.Solve(sub.rl, full)
		for l := range full {
			same := math.Float64bits(sub.zl[l]) == math.Float64bits(full[l])
			switch {
			case !same && l >= sub.first:
				t.Fatalf("subdomain %d: row %d (first base row %d) is not the full solve's", s, l, sub.first)
			case !same:
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("restricted Apply back-substituted every row below the base blocks")
	}
}

// widened is lap3d(n) with an extra coupling between every row and the
// row two further on, and no stored zeros: another sparsity pattern on
// the same unknowns, whose subdomains are wider.
func widened(n int, seed int64) *la.CSR {
	a := lap3d(n)
	rng := rand.New(rand.NewSource(seed))
	b := la.NewBuilder(a.NRows, a.NCols)
	for i := 0; i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			b.Add(i, a.ColInd[k], a.Val[k]*(1+0.1*rng.Float64()))
		}
		if i+2 < a.NRows {
			b.Add(i, i+2, -0.25)
			b.Add(i+2, i, -0.25)
		}
	}
	return b.ToCSR()
}

// TestASMRebuildMatchesNew: Rebuild onto a matrix with another sparsity
// pattern — wider, with stored zeros, of another order, wider again — is
// bitwise NewASM of that matrix at 1 and 3 workers.
func TestASMRebuildMatchesNew(t *testing.T) {
	zeros := func(r, c int) bool { return (r+c)%5 == 0 }
	mats := []*la.CSR{widened(7, 1), lapStoredZeros(7, 2, zeros), lap3d(6), widened(7, 3)}
	for _, w := range []int{1, 3} {
		opt := ASMOptions{Subdomains: 8, Overlap: 2, Workers: w}
		asm, err := NewASM(lap3d(7), opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range mats {
			if err := asm.Rebuild(a); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewASM(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			r := randVec(rand.New(rand.NewSource(int64(i))), a.NRows)
			got, want := la.NewVec(a.NRows), la.NewVec(a.NRows)
			got.Set(math.NaN())
			asm.Apply(r, got)
			fresh.Apply(r, want)
			sameBits(t, fmt.Sprintf("workers=%d matrix %d", w, i), got, want)
		}
	}
}

// TestAllocBudgetASMRebuild: once the subdomains have grown to fit both
// of two sparsity patterns, rebuilding from one to the other allocates
// nothing on one worker, and on three nothing beyond what the pool's
// dispatch of the subdomains allocates (any par.ForChunk does as much).
func TestAllocBudgetASMRebuild(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a, b := widened(7, 1), lapStoredZeros(7, 2, func(r, c int) bool { return (r+c)%5 == 0 })
	for _, w := range []int{1, 3} {
		asm, err := NewASM(a, ASMOptions{Subdomains: 8, Overlap: 2, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.Rebuild(b); err != nil {
			t.Fatal(err)
		}
		body := func(c, lo, hi int) {}
		dispatch := testing.AllocsPerRun(5, func() { par.ForChunk(w, len(asm.subs), body) })
		if allocs := testing.AllocsPerRun(5, func() {
			if err := asm.Rebuild(a); err != nil {
				t.Fatal(err)
			}
			if err := asm.Rebuild(b); err != nil {
				t.Fatal(err)
			}
		}) / 2; allocs != dispatch {
			t.Errorf("workers=%d: a rebuild that fits allocates %v times; its pool dispatch %v", w, allocs, dispatch)
		}
	}
}
