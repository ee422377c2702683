package mg_test

import (
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/mg"
	"ptatin3d/internal/op"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
)

// TestRegistryHierarchyIsResidentAndBlocked is the structural statement
// of the one-path V-cycle, over every registered scenario at its small
// resolution: after stokes.Context.Prepare every non-coarsest level has
// resident backing and smooths wavefront-blocked, the coupled matvec and
// the hierarchy share one fine operator, no level but the coarsest keeps a
// matrix (the Galerkin product streams from element matrices), and the
// distributed view of each such level applies the shared resident kernel.
func TestRegistryHierarchyIsResidentAndBlocked(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			s := prepareSmall(t, name)
			levels := s.MG.Levels
			if any(s.Op.Auu) != any(levels[0].Op) {
				t.Errorf("coupled matvec applies %T, hierarchy level 0 %T: not one shared operator", s.Op.Auu, levels[0].Op)
			}

			w := comm.NewWorld(1)
			w.Run(func(r *comm.Rank) {
				dists := make([]*comm.Dist, len(levels))
				for l, lev := range levels {
					d, err := comm.NewDecomp(lev.Prob.DA, 1, 1, 1)
					if err != nil {
						t.Error(err)
						return
					}
					dists[l] = comm.NewDist(r, comm.NewLayout(d, r.ID), nil)
				}
				dmg, err := mg.NewDist(s.MG, dists)
				if err != nil {
					t.Error(err)
					return
				}
				for l, lev := range levels[:len(levels)-1] {
					res := op.ResidentOf(lev.Op)
					if res == nil {
						t.Errorf("level %d (%v) has no resident backing", l, lev.Op.Kind())
						continue
					}
					if lev.Blocked == nil || lev.Blocked.R != res {
						t.Errorf("level %d (%v) is resident but does not smooth blocked over it", l, lev.Op.Kind())
					}
					if got := mg.DistLevelResident(dmg, l); got != res {
						t.Errorf("level %d: the distributed view does not apply the shared resident kernel", l)
					}
					if lev.Op.CSR() != nil {
						t.Errorf("level %d (%v) keeps a matrix", l, lev.Op.Kind())
					}
				}
			})
		})
	}
}

// TestHierarchyEndsInCoarseSolve: over every registered scenario at its
// small resolution, the hierarchy stokes.Context.Prepare builds ends in
// the coarse solve: the coarsest level carries no smoother, full-grid or
// blocked, the coarse solver is set, Describe names it, and a 2x1x1 rank
// view gives the level no operator or smoother of its own, and its finest
// level no right-hand-side vector, which the cycle never reads there.
func TestHierarchyEndsInCoarseSolve(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			s := prepareSmall(t, name)
			levels := s.MG.Levels
			last := len(levels) - 1
			if lev := levels[last]; lev.Smoother != nil || lev.Blocked != nil {
				t.Errorf("coarsest level %d smooths (Smoother %v, Blocked %v)", last, lev.Smoother != nil, lev.Blocked != nil)
			}
			if s.MG.CoarseSolve == nil {
				t.Error("no coarse solver")
			}
			if got := s.MG.Describe()[last].Smoother; got != "coarse-solve" {
				t.Errorf("Describe reads %q on the coarsest level, want coarse-solve", got)
			}

			decomps := make([]*comm.Decomp, len(levels))
			for l, lev := range levels {
				d, err := comm.NewDecomp(lev.Prob.DA, 2, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				decomps[l] = d
			}
			if err := mg.ValidateNestedDecomps(decomps); err != nil {
				t.Fatal(err)
			}
			w := comm.NewWorld(2)
			w.Run(func(r *comm.Rank) {
				dists := make([]*comm.Dist, len(levels))
				for l, d := range decomps {
					dists[l] = comm.NewDist(r, comm.NewLayout(d, r.ID), nil)
				}
				dmg, err := mg.NewDist(s.MG, dists)
				if err != nil {
					t.Error(err)
					return
				}
				if mg.DistLevelBuilt(dmg, last) {
					t.Errorf("rank %d: the view builds its coarsest level an operator or a smoother", r.ID)
				}
				if !mg.DistLevelBuilt(dmg, 0) {
					t.Errorf("rank %d: the view builds its finest level nothing", r.ID)
				}
				// The cycle reads a level's restricted right-hand side
				// below the finest only: the finest gets the solve's r.
				if mg.DistLevelHasRHS(dmg, 0) {
					t.Errorf("rank %d: the view holds its finest level a right-hand-side vector nothing reads", r.ID)
				}
				if !mg.DistLevelHasRHS(dmg, last) {
					t.Errorf("rank %d: the view holds its coarsest level no right-hand-side vector", r.ID)
				}
			})
		})
	}
}

// prepareSmall prepares the Stokes solver of the registered scenario name
// at its small resolution, as a step's first solve does.
func prepareSmall(t *testing.T, name string) *stokes.Solver {
	t.Helper()
	spec, err := scenario.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Resolution = spec.SmallResolution()
	m, err := scenario.Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := new(stokes.Context).Prepare(m.Prob, m.StokesConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.MG == nil {
		t.Fatal("no geometric hierarchy")
	}
	return s
}
