package la_test

import (
	"fmt"
	"sort"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/scenario"
)

// TestILU0RiftSubdomainsMatchCSRForm: on every Schwarz subdomain of the
// rift's coarse level (the small resolution, cold set-up; 8 subdomains,
// overlap 4, exact zeros dropped as krylov.ASM drops them) the
// sweep-ordered factor and its solves are the CSR form's bit for bit.
func TestILU0RiftSubdomainsMatchCSRForm(t *testing.T) {
	spec, err := scenario.Get("rift")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.LinearStokes(nil)
	if err != nil {
		t.Fatal(err)
	}
	a := s.MG.Levels[len(s.MG.Levels)-1].Op.CSR()
	const nsub, overlap = 8, 4
	n := a.NRows
	chunk := (n + nsub - 1) / nsub
	for lo := 0; lo < n; lo += chunk {
		in := make([]bool, n)
		var rows []int
		for i := lo; i < min(lo+chunk, n); i++ {
			in[i] = true
			rows = append(rows, i)
		}
		frontier := rows
		for lvl := 0; lvl < overlap; lvl++ {
			next := len(rows)
			for _, i := range frontier {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					if j := a.ColInd[k]; !in[j] {
						in[j] = true
						rows = append(rows, j)
					}
				}
			}
			frontier = rows[next:]
		}
		sort.Ints(rows)
		sub := la.ExtractSubmatrix(a, rows)
		f, err := la.NewILU0(sub)
		if err != nil {
			t.Fatal(err)
		}
		// The back-sweep's ends and middle, and where restricted Schwarz
		// stops it: the first row of the base block.
		nl := len(rows)
		firsts := []int{0, 1, sort.SearchInts(rows, lo), nl / 2, nl - 1, nl}
		la.MatchCSRFormILU0(t, fmt.Sprintf("subdomain at row %d (%d rows)", lo, nl), f, sub, firsts)
	}
}
