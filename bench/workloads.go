package main

import (
	"fmt"
	"math"
	"math/rand"

	"ptatin3d/internal/scenario"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured part of
// one run on the reference host. A different -seconds scales every
// workload's timed step count in proportion; the problem never changes.
const defaultSeconds = 17

// defaultSeed is the seed the checked-in references were written at.
const defaultSeed = 1

// jitterFrac is how far a seed moves each sphere centre, as a share of
// the material-point spacing. A fresh placement per seed changes the
// Krylov iteration count by up to 40% at viscosity contrast 1e5, which no
// regression bound survives; a few points changing lithology per sphere
// gives every seed its own input and the same work to within ~2%.
const jitterFrac = 0.05

// workload is one fixed problem: a registered scenario, the overrides
// that size it, the Stokes backend, and how many steps are timed.
type workload struct {
	name     string
	scenario string
	res      [3]int // zero keeps the spec's resolution
	ppe      int    // zero keeps the spec's points per element
	ranks    int    // > 1 runs NewDistributedBackend(ranks,1,1), 1 worker per rank
	steps    int    // timed steps at defaultSeconds, after one warm-up step
	// setups is how many times the untraced run repeats set-up; setup_s
	// is their median. The 16³ and rift set-ups cost 4-6 s each, so
	// they fit once in a run; the small ones are repeated.
	setups int
	// tol is the relative L2 tolerance of the final velocity against the
	// reference (1e-3 linear rheology, 5e-2 for rift's 1e-2 nonlinear
	// tolerance).
	tol float64
	// seeded names the geometry primitive kind the seed acts on: "swarm"
	// jitters the sphere centres, "damage" offsets the primitive's own
	// seed by seed-1; "" means the workload has no random input.
	seeded string
	// opKernels adds the op.* / la.* kernel replays (and the in-run
	// machine calibration they are stated against) to the traced run.
	opKernels bool
	listed    bool // part of BENCHMARK.json (quick is the test's workload)
	why       string
}

var workloads = []workload{
	{
		name: "sinker16", scenario: "sinker", res: [3]int{16, 16, 16}, ppe: 3,
		steps: 4, setups: 1, tol: 1e-3, seeded: "swarm", opKernels: true, listed: true,
		why: "paper IV-A sinker at 16^3, shared backend: cost per Krylov iteration (V-cycle, smoother, fine kernel) is ~78% of the step",
	},
	{
		name: "sinker16-r2", scenario: "sinker", res: [3]int{16, 16, 16}, ppe: 3, ranks: 2,
		steps: 3, setups: 1, tol: 1e-3, seeded: "swarm", listed: true,
		why: "the same problem on 2 simulated ranks x 1 worker: halo exchange, deterministic reductions and dist.go, the second solver stack",
	},
	{
		name: "rift", scenario: "rift",
		steps: 4, setups: 1, tol: 5e-2, seeded: "damage", listed: true,
		why: "paper V rift 32x8x16: visco-plastic, thermal, free surface, 3-5 relinearisations per step, so Stokes set-up refresh is 26-38% of the step",
	},
	{
		name: "swarm-hc", scenario: "sinker-swarm",
		steps: 8, setups: 3, tol: 1e-3, seeded: "swarm", listed: true,
		why: "12 spheres at viscosity contrast 1e5, restart 200, 8^3: iteration count and the 200-vector orthogonalisation dominate; set-up and MPM are nil",
	},
	{
		name: "rt-mpm", scenario: "rayleigh-taylor", res: [3]int{8, 8, 8}, ppe: 6,
		steps: 22, setups: 5, tol: 1e-3, opKernels: true, listed: true,
		why: "Rayleigh-Taylor 8^3 with 216 points per element: MPM, rheology and ALE are ~55% of the step, so a Stokes-side gain predicts no change here",
	},
	{
		name: "quick", scenario: "sinker", res: [3]int{8, 8, 8}, ppe: 2,
		steps: 1, setups: 1, tol: 1e-3, seeded: "swarm", opKernels: true,
		why: "8^3 sinker, 1+1 steps: the harness's own test workload",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedSteps scales the workload's step count to the -seconds budget.
func (w workload) timedSteps(seconds int) int {
	n := int(math.Round(float64(w.steps) * float64(seconds) / defaultSeconds))
	return max(1, n)
}

// spec generates the workload's input from the seed. The program under
// test receives only this Spec: the seed jitters the sphere centres
// (sinker16, sinker16-r2, swarm-hc, quick) or offsets the damage seed
// (rift); rt-mpm has no random input, so every seed gives the same Spec.
func (w workload) spec(seed int64) (scenario.Spec, error) {
	spec, err := scenario.Get(w.scenario)
	if err != nil {
		return spec, err
	}
	if w.res != [3]int{} {
		spec.Resolution = w.res
		spec.Solver.Levels = 0 // re-derive the hierarchy depth
	}
	if w.ppe > 0 {
		spec.PPE = w.ppe
	}
	if w.seeded == "" {
		return spec, nil
	}
	found := false
	var geom []scenario.Primitive
	for _, p := range spec.Geometry {
		if p.Kind != w.seeded {
			geom = append(geom, p)
			continue
		}
		found = true
		if p.Kind != "swarm" {
			p.Seed += seed - defaultSeed
			geom = append(geom, p)
			continue
		}
		// The registered placement, written out as explicit spheres (the
		// same classification), each centre displaced per axis by up to
		// jitterFrac of the material-point spacing.
		lo, hi := spec.Domain.Lo(), spec.Domain.Hi()
		var amp [3]float64
		for a := range amp {
			amp[a] = jitterFrac * (hi[a] - lo[a]) / float64(spec.Resolution[a]*spec.PPE)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, c := range scenario.SwarmCenters(p, spec.Domain) {
			for a := range c {
				c[a] += (2*rng.Float64() - 1) * amp[a]
			}
			geom = append(geom, scenario.Primitive{Kind: "sphere", Litho: p.Litho, Center: c, Radius: p.Radius})
		}
	}
	spec.Geometry = geom
	if !found {
		return spec, fmt.Errorf("workload %s: scenario %s has no %q primitive to seed", w.name, w.scenario, w.seeded)
	}
	return spec, nil
}
