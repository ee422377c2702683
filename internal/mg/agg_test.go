package mg

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/la"
)

// TestDistMGAggMatchesLegacy: the agglomerated coarse solve must not
// change the V-cycle at all — the same coarse problem is solved by the
// same shared solver, only on a different subset of ranks — so one
// distributed V-cycle application with coarse agglomeration onto 4 and
// all-ranks root subsets must match the one-root layout (all to rank 0,
// what DistOptions{} means) bit for bit on every rank's owned dofs, on
// the nested 2x2x2 rank grid over the 8^3 -> 4^3 hierarchy.
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

	ref := apply(DistOptions{}) // one root: everything to rank 0
	if ref.Norm2() == 0 {
		t.Fatal("one-root V-cycle returned zero correction")
	}
	for _, roots := range []int{4, size} {
		agg, err := comm.NewAgg(size, roots)
		if err != nil {
			t.Fatalf("NewAgg(%d,%d): %v", size, roots, err)
		}
		z := apply(DistOptions{Agg: agg})
		for i := range z {
			if math.Float64bits(z[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("agglomerated coarse solve (%d roots) deviates from one root at dof %d: %v vs %v", roots, i, z[i], ref[i])
			}
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
