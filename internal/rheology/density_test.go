package rheology_test

import (
	"math"
	"math/rand"
	"testing"

	"ptatin3d/internal/rheology"
	"ptatin3d/internal/scenario"
)

// TestDensityReadsNoStokesState: for every lithology of every registered
// scenario, Density returns the same bits whatever the strain rate, the
// pressure and the plastic strain hold. Model.SolveStokes relies on it: it
// evaluates, projects and installs ρ, and builds the load vector, once per
// solve, at the first coefficient update, since within a solve only the
// Stokes state changes.
func TestDensityReadsNoStokesState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, name := range scenario.Names() {
		spec, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Resolution = spec.SmallResolution()
		m, err := scenario.Compile(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for li := range m.Lith {
			l := &m.Lith[li]
			for k := 0; k < 100; k++ {
				s := rheology.State{Temperature: math.Pow(10, -2+5.3*rng.Float64())}
				want := math.Float64bits(l.Density(s))
				p := s
				p.StrainRateII = math.Pow(10, -8+10*rng.Float64())
				p.Pressure = -50 + 550*rng.Float64()
				p.PlasticStrain = 2 * rng.Float64()
				if got := math.Float64bits(l.Density(p)); got != want {
					t.Fatalf("%s lithology %q: ρ at %+v is %v, at %+v %v. A density that reads the Stokes state "+
						"must be re-evaluated at every coefficient update of a solve: Model.SolveStokes then needs "+
						"the per-state density path back (ρ and the load vector with every η update)",
						name, l.Name, s, math.Float64frombits(want), p, math.Float64frombits(got))
				}
			}
		}
	}
}
