package mg

import (
	"math/rand"
	"sync"
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/la"
)

// TestDistMGAggMatchesLegacy: the agglomerated coarse solve must not
// change the V-cycle at all — the same coarse problem is solved by the
// same shared solver, only on a different subset of ranks — so one
// distributed V-cycle application with coarse agglomeration onto 1, 4
// and all-ranks root subsets must match the legacy all-to-rank-0
// GatherSolveBroadcast path on every rank's owned dofs to 1e-12, on the
// nested 2x2x2 rank grid over the 8^3 -> 4^3 hierarchy.
func TestDistMGAggMatchesLegacy(t *testing.T) {
	mgp, decomps := buildDistFixture(t, 8, 2, 2, 2, 2)
	size := decomps[0].Size() // 8 ranks
	n := mgp.Levels[0].Op.N()
	rng := rand.New(rand.NewSource(19))
	b := la.NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	// apply runs one distributed V-cycle with the given coarse options
	// and assembles the owned dofs of every rank into one full vector.
	apply := func(opt DistOptions) la.Vec {
		w := comm.NewWorld(size)
		var mu sync.Mutex
		z := la.NewVec(n)
		w.Run(func(r *comm.Rank) {
			dists := rankDists(r, decomps)
			dmg, err := NewDist(mgp, dists, opt)
			if err != nil {
				t.Error(err)
				return
			}
			zr := la.NewVec(n)
			dmg.Apply(b, zr)
			if err := dmg.Err(); err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
			l := dists[0].L
			mu.Lock()
			for _, node := range l.OwnedNodes() {
				for c := 0; c < 3; c++ {
					z[3*node+int32(c)] = zr[3*node+int32(c)]
				}
			}
			mu.Unlock()
		})
		return z
	}

	legacy := apply(DistOptions{}) // GatherSolveBroadcast to rank 0
	ref := legacy.Norm2()
	if ref == 0 {
		t.Fatal("legacy V-cycle returned zero correction")
	}
	for _, roots := range []int{1, 4, size} {
		agg, err := comm.NewAgg(size, roots)
		if err != nil {
			t.Fatalf("NewAgg(%d,%d): %v", size, roots, err)
		}
		z := apply(DistOptions{Agg: agg})
		diff := z.Clone()
		diff.AXPY(-1, legacy)
		if rel := diff.Norm2() / ref; rel > 1e-12 {
			t.Fatalf("agglomerated coarse solve (%d roots) deviates from legacy: rel %.3e", roots, rel)
		}
	}
}

// TestDistMGAggRejectsMismatchedWorld: an Agg sized for a different
// world than the decomposition's rank grid must be rejected up front.
func TestDistMGAggRejectsMismatchedWorld(t *testing.T) {
	mgp, decomps := buildDistFixture(t, 8, 2, 2, 2, 1)
	size := decomps[0].Size() // 4 ranks
	agg, err := comm.NewAgg(size+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(size)
	var mu sync.Mutex
	var firstErr error
	w.Run(func(r *comm.Rank) {
		dists := rankDists(r, decomps)
		_, err := NewDist(mgp, dists, DistOptions{Agg: agg})
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	})
	if firstErr == nil {
		t.Fatal("Agg sized for 5 ranks accepted on a 4-rank world; want error")
	}
}
