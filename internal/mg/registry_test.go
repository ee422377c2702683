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
// the hierarchy share one fine operator, a resident level below the
// finest keeps its matrix as the Galerkin input, and the distributed view
// of each such level applies the shared resident kernel.
func TestRegistryHierarchyIsResidentAndBlocked(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
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
				dmg, err := mg.NewDist(s.MG, dists, mg.DistOptions{})
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
					// Below level 0 every coarser neighbour is a Galerkin product.
					if kept := lev.Op.CSR() != nil; kept != (l > 0) {
						t.Errorf("level %d: matrix kept = %v, want %v", l, kept, l > 0)
					}
				}
			})
		})
	}
}
