package stokes_test

import (
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// TestRankKrylovStorageIsWindowed: on the small sinker at 2×1×1 and
// 2×2×2, two solves with a Refresh between them leave every rank holding
// its Krylov vectors packed on its windows — right-hand side, solution,
// residual and basis — apart from at most 3 full-length apply buffers, so
// a rank's Krylov storage is O(n/P), not P copies of the full vectors.
func TestRankKrylovStorageIsWindowed(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the small sinker on 8 ranks")
	}
	spec, err := scenario.Get("sinker")
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][3]int{{2, 1, 1}, {2, 2, 2}} {
		s, bu, err := m.LinearStokes(nil)
		if err != nil {
			t.Fatal(err)
		}
		n := s.Op.N()
		rhs, delta := la.NewVec(n), la.NewVec(n)
		copy(rhs, bu)
		for solve := 0; solve < 2; solve++ {
			if solve == 1 {
				if err := s.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			res, _, err := s.LinearSolveDistributed(s.Cfg.OuterMethod, s.Op, rhs, delta, s.Cfg.Params, w[0], w[1], w[2])
			if err != nil || !res.Converged {
				t.Fatalf("%v solve %d: converged %v after %d its, err %v", w, solve, res.Converged, res.Iterations, err)
			}
		}
		ranks := stokes.RankKrylovStorage(s)
		if len(ranks) != w[0]*w[1]*w[2] {
			t.Fatalf("%v: %d rank views, want %d", w, len(ranks), w[0]*w[1]*w[2])
		}
		for r, st := range ranks {
			if st.Windows >= st.Full {
				t.Fatalf("%v rank %d: windows cover %d of %d entries", w, r, st.Windows, st.Full)
			}
			full, packed := 0, 0
			for _, l := range st.Vecs {
				switch l {
				case st.Windows:
					packed++
				case st.Full:
					full++
				default:
					t.Fatalf("%v rank %d: a vector of length %d, neither the windows' %d nor full %d", w, r, l, st.Windows, st.Full)
				}
			}
			if full > 3 {
				t.Errorf("%v rank %d: %d full-length vectors (and %d packed), want at most 3 apply buffers", w, r, full, packed)
			}
			t.Logf("%v rank %d: %d packed vectors of %d (%.1f %% of %d), %d full-length", w, r, packed, st.Windows, 100*float64(st.Windows)/float64(st.Full), st.Full, full)
		}
	}
}
