package krylov

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ptatin3d/internal/la"
)

// refASM is the serial, map-based additive Schwarz that ASM replaced,
// kept as its reference: subdomains grown through a set, submatrices
// through la.ExtractSubmatrix (which drops exact zeros), one subdomain
// after the other in Apply.
type refASM struct {
	rows     [][]int
	base     [][]bool
	ilu      []*la.ILU0
	lu       []*la.LU
	restrict bool
}

func newRefASM(t *testing.T, a *la.CSR, opt ASMOptions) *refASM {
	t.Helper()
	n := a.NRows
	nsub := min(max(1, opt.Subdomains), n)
	ref := &refASM{restrict: !opt.Additive}
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
		sub := la.ExtractSubmatrix(a, rows)
		ref.rows = append(ref.rows, rows)
		ref.base = append(ref.base, base)
		if opt.Exact {
			d := la.NewDense(sub.NRows, sub.NCols)
			for i := 0; i < sub.NRows; i++ {
				for k := sub.RowPtr[i]; k < sub.RowPtr[i+1]; k++ {
					d.Add(i, sub.ColInd[k], sub.Val[k])
				}
			}
			f, err := la.Factor(d)
			if err != nil {
				t.Fatal(err)
			}
			ref.lu, ref.ilu = append(ref.lu, f), append(ref.ilu, nil)
		} else {
			f, err := la.NewILU0(sub)
			if err != nil {
				t.Fatal(err)
			}
			ref.ilu, ref.lu = append(ref.ilu, f), append(ref.lu, nil)
		}
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
		if ref.lu[s] != nil {
			ref.lu[s].Solve(rl, zl)
		} else {
			ref.ilu[s].Solve(rl, zl)
		}
		for l, g := range rows {
			if !ref.restrict {
				z[g] += zl[l]
			} else if ref.base[s][l] {
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
// the serial map-based reference bitwise — RAS and additive, ILU(0) and
// exact subdomain solves, with stored zeros in the matrix — and a second
// Apply on the same instance (reused work vectors) repeats the first.
func TestASMParallelMatchesSerial(t *testing.T) {
	a := lapStoredZeros(7, 3, func(r, c int) bool { return (r+c)%5 == 0 })
	rng := rand.New(rand.NewSource(21))
	r := randVec(rng, a.NRows)
	for _, additive := range []bool{false, true} {
		for _, exact := range []bool{false, true} {
			opt := ASMOptions{Subdomains: 8, Overlap: 2, Exact: exact, Additive: additive}
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
					sameBits(t, fmt.Sprintf("additive=%v exact=%v workers=%d apply %d", additive, exact, w, rep), got, want)
				}
			}
		}
	}
}

// TestASMRefreshMatchesNew: after the matrix values change on a fixed
// sparsity pattern, Refresh equals a fresh NewASM bitwise — when the
// nonzeros stay where they were (patterns kept) and when exact zeros
// appear and disappear (subdomain patterns rebuilt).
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
	for _, exact := range []bool{false, true} {
		for _, w := range []int{1, 3} {
			a := lapStoredZeros(7, 3, zeroA)
			opt := ASMOptions{Subdomains: 8, Overlap: 2, Exact: exact, Workers: w}
			asm, err := NewASM(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range steps {
				// The solver's matrix is refreshed in place: same arrays.
				copy(a.Val, st.next.Val)
				kept := asm.subs[0].mat
				if err := asm.Refresh(a); err != nil {
					t.Fatal(err)
				}
				if !exact && (st.name != "zeros moved") != (asm.subs[0].mat == kept) {
					t.Fatalf("%s: subdomain pattern kept = %v", st.name, asm.subs[0].mat == kept)
				}
				fresh, err := NewASM(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, want := la.NewVec(a.NRows), la.NewVec(a.NRows)
				asm.Apply(r, got)
				fresh.Apply(r, want)
				sameBits(t, fmt.Sprintf("exact=%v workers=%d %s", exact, w, st.name), got, want)
			}
		}
	}
}

// TestASMRestrictedPartialSweepBitwise: restricted Schwarz stops each
// subdomain's ILU(0) back-sweep at the first base row and still returns
// the bits of the reference, which solves every subdomain in full; the
// additive variant reads every row of every subdomain solve, so it must
// keep the full sweep.
func TestASMRestrictedPartialSweepBitwise(t *testing.T) {
	a := lapStoredZeros(7, 9, func(r, c int) bool { return (r+c)%5 == 0 })
	rng := rand.New(rand.NewSource(23))
	r := randVec(rng, a.NRows)
	for _, additive := range []bool{false, true} {
		opt := ASMOptions{Subdomains: 8, Overlap: 2, Additive: additive, Workers: 2}
		asm, err := NewASM(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, want := la.NewVec(a.NRows), la.NewVec(a.NRows)
		asm.Apply(r, got)
		newRefASM(t, a, opt).Apply(r, want)
		sameBits(t, fmt.Sprintf("additive=%v", additive), got, want)

		// What Apply left in each subdomain's solution vector against a
		// full solve of the same right-hand side.
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
				case !same && (additive || l >= sub.first):
					t.Fatalf("additive=%v subdomain %d: row %d (first base row %d) is not the full solve's", additive, s, l, sub.first)
				case !same:
					skipped++
				}
			}
		}
		if !additive && skipped == 0 {
			t.Fatal("restricted Apply back-substituted every row below the base blocks")
		}
	}
}
