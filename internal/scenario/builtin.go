package scenario

import "math"

// The built-in registry: the paper's two model problems plus four
// scenarios that stress other corners of the physics (buoyancy-driven
// instability, thermal high-contrast subduction, power-law necking, and
// a many-body high-contrast swarm).
func init() {
	Register("sinker", func() Spec { return Sinker(DefaultSinkerOptions()) })
	Register("rift", func() Spec { return Rift(DefaultRiftOptions()) })
	Register("rayleigh-taylor", RayleighTaylor)
	Register("subduction", Subduction)
	Register("slab-detachment", SlabDetachment)
	Register("sinker-swarm", SinkerSwarm)
}

// boolp returns a pointer for the tri-state NonlinearSpec fields.
func boolp(b bool) *bool { return &b }

// SinkerOptions parametrizes the sedimentation benchmark of paper
// §IV-A: Nc randomly placed, non-intersecting spheres of radius Rc in
// the unit cube, viscosity contrast Δη between ambient fluid and
// spheres, slip walls, free surface at z = 1, gravity (0,0,−9.8).
type SinkerOptions struct {
	M        int     // elements per direction
	Nc       int     // number of spheres (paper: 8)
	Rc       float64 // sphere radius (paper: 0.1)
	DeltaEta float64 // viscosity contrast Δη
	PPE      int     // material points per element per direction (default 3)
	Seed     int64   // sphere placement seed (deterministic by default)
}

// DefaultSinkerOptions returns the paper's configuration at a reduced
// default resolution.
func DefaultSinkerOptions() SinkerOptions {
	return SinkerOptions{M: 8, Nc: 8, Rc: 0.1, DeltaEta: 100, PPE: 3, Seed: 20140704}
}

// Sinker builds the §IV-A sedimentation spec: lithology 0 is the
// ambient fluid (η = 1/Δη, ρ = 1), lithology 1 the spheres (η = 1,
// ρ = 1.2).
func Sinker(o SinkerOptions) Spec {
	if o.M <= 0 {
		o.M = 8
	}
	if o.PPE <= 0 {
		o.PPE = 3
	}
	if o.Rc <= 0 {
		o.Rc = 0.1
	}
	if o.DeltaEta <= 0 {
		o.DeltaEta = 100
	}
	return Spec{
		Name:         "sinker",
		Description:  "§IV-A sedimentation benchmark: dense viscous spheres sinking in a unit cube",
		Physics:      "linear rheology, viscosity contrast, free surface, MPM advection",
		Domain:       Box{X1: 1, Y1: 1, Z1: 1},
		Resolution:   [3]int{o.M, o.M, o.M},
		Small:        [3]int{8, 8, 8},
		PPE:          o.PPE,
		Gravity:      [3]float64{0, 0, -9.8},
		VerticalAxis: 2, FreeSurface: true, CFL: 0.25,
		Lithologies: []LithologySpec{
			{Name: "ambient", Type: "constant", Eta0: 1 / o.DeltaEta, Rho0: 1},
			{Name: "sphere", Type: "constant", Eta0: 1, Rho0: 1.2},
		},
		Geometry: []Primitive{
			{Kind: "swarm", Litho: 1, Count: o.Nc, Radius: o.Rc, Seed: o.Seed},
		},
		BCs: []BCSpec{
			{Face: "xmin", Kind: "freeslip"},
			{Face: "xmax", Kind: "freeslip"},
			{Face: "ymin", Kind: "freeslip"},
			{Face: "ymax", Kind: "freeslip"},
			{Face: "zmin", Kind: "freeslip"},
		},
		// The sinker rheology is linear: one Picard step with a tight
		// inner solve at the paper's tolerance solves it, so adaptive
		// (Eisenstat–Walker) forcing would only slow the first step
		// down. Keep a small iteration budget for the
		// projection-induced coefficient feedback.
		Nonlinear: NonlinearSpec{MaxIt: 3, RTol: 1e-5, EisenstatWalker: boolp(false)},
	}
}

// RiftOptions parametrizes the continental rifting model of paper §V.
//
// Nondimensionalization (DESIGN.md, "Scenarios and the front door"; the
// paper quotes only "the non-dimensional scaling we adopted"): length
// unit 100 km, velocity unit 1 cm/yr, viscosity unit 10²² Pa·s,
// temperature unit 1300 °C. The domain is then 12 × 2 × 6 (x: 1200 km,
// y: 200 km vertical, z: 600 km) with the mantle in y ∈ [0, 1.6), weak
// (lower) crust [1.6, 1.8) and strong (upper) crust [1.8, 2.0]. Buoyancy:
// ρ′g′ = ρ·g·L²/(η₀·V₀) ≈ 102 per unit scaled density ρ/3300.
type RiftOptions struct {
	// Mx, My, Mz are element counts (paper finest: 256×32×128; default
	// laptop scale 32×8×16).
	Mx, My, Mz int
	// ExtensionVel is the full-face x-extension in cm/yr per side
	// (paper: ±1, i.e. 2 cm/yr total).
	ExtensionVel float64
	// ObliqueShortening applies the paper's boundary condition (ii): a
	// small u_z shortening (in cm/yr, paper: 0.2 total → 0.1 per side)
	// on the z faces.
	ObliqueShortening float64
	// WeakCrustEta is the (nondimensional) lower-crust viscosity; the
	// paper contrasts weak vs. strong lower crust (margin style).
	WeakCrustEta float64
	PPE          int
	Seed         int64
}

// DefaultRiftOptions returns the reduced-scale rift configuration.
func DefaultRiftOptions() RiftOptions {
	return RiftOptions{
		Mx: 32, My: 8, Mz: 16,
		ExtensionVel: 1.0, ObliqueShortening: 0,
		WeakCrustEta: 0.05,
		PPE:          2, Seed: 7,
	}
}

// Rift lithology indices.
const (
	LithMantle = iota
	LithWeakCrust
	LithStrongCrust
)

// Rift builds the continental rifting spec of paper §V: three
// lithologies (temperature-dependent mantle, Drucker–Prager crusts
// with cohesion softening), x-extension boundary conditions, a
// conductive initial temperature profile, and the randomized damage
// seed of Fig. 3.
func Rift(o RiftOptions) Spec {
	if o.Mx <= 0 || o.My <= 0 || o.Mz <= 0 {
		d := DefaultRiftOptions()
		o.Mx, o.My, o.Mz = d.Mx, d.My, d.Mz
	}
	if o.PPE <= 0 {
		o.PPE = 2
	}
	if o.WeakCrustEta <= 0 {
		o.WeakCrustEta = 0.05
	}
	const (
		lx, ly, lz = 12.0, 2.0, 6.0
		buoyancy   = 102.0 // ρ′g′ per unit scaled density (see RiftOptions)
	)
	// Extension on the x faces; free slip bottom and z faces; free
	// surface on top (y max).
	bcs := []BCSpec{
		{Face: "xmin", Kind: "velocity", Component: 0, Value: -o.ExtensionVel},
		{Face: "xmax", Kind: "velocity", Component: 0, Value: +o.ExtensionVel},
		{Face: "ymin", Kind: "velocity", Component: 1, Value: 0},
	}
	if o.ObliqueShortening != 0 {
		bcs = append(bcs,
			BCSpec{Face: "zmin", Kind: "velocity", Component: 2, Value: +o.ObliqueShortening},
			BCSpec{Face: "zmax", Kind: "velocity", Component: 2, Value: 0})
	} else {
		bcs = append(bcs,
			BCSpec{Face: "zmin", Kind: "freeslip"},
			BCSpec{Face: "zmax", Kind: "freeslip"})
	}
	return Spec{
		Name:         "rift",
		Description:  "§V continental rifting: extension of a layered visco-plastic lithosphere with a damage seed",
		Physics:      "Frank-Kamenetskii creep, Drucker-Prager yielding + softening, thermal coupling, free surface",
		Domain:       Box{X1: lx, Y1: ly, Z1: lz},
		Resolution:   [3]int{o.Mx, o.My, o.Mz},
		Small:        [3]int{8, 4, 8},
		PPE:          o.PPE,
		Gravity:      [3]float64{0, -buoyancy, 0},
		VerticalAxis: 1, FreeSurface: true,
		CFL: 0.25, MaxDt: 0.01, MinPointsPerElement: 2,
		// The rift defaults to Picard linearizations for both the
		// matvec and the preconditioner. The true-Newton operator
		// (paper §III-A) is implemented and FD-verified at the
		// discretization level (UseNewton flips it on), but with
		// material-point-projected coefficients the assembled Jacobian
		// is not the exact derivative of the projected residual, and at
		// the reduced resolutions of this reproduction the
		// inconsistency costs more than the quadratic convergence gains
		// — Picard reaches the paper's 10⁻² step tolerance in 1–5
		// iterations.
		UseNewton: false,
		// Lithologies (nondimensional; viscosity unit 10²² Pa·s,
		// T ∈ [0,1]). Mantle: temperature-dependent creep,
		// Frank–Kamenetskii contrast 10³ from surface to base; crusts
		// carry Drucker–Prager limiters with cohesion softening
		// (cohesion unit: η₀V₀/L₀ ≈ 31.7 MPa ⇒ C≈20 MPa → 0.63
		// nondimensional).
		Lithologies: []LithologySpec{
			LithMantle: {
				Name: "mantle", Type: "frank-kamenetskii",
				Eta0: 10, N: 1, E: math.Log(1000),
				EtaMin: 1e-2, EtaMax: 100,
				Rho0: 1.0, Alpha: 0.039, TRef: 1,
			},
			LithWeakCrust: {
				Name: "weak crust", Type: "constant",
				Eta0:    o.WeakCrustEta,
				Plastic: true, Cohesion: 0.63, CohesionSoft: 0.13, SoftStrain: 1,
				FrictionPhi: math.Pi / 6,
				EtaMin:      1e-2, EtaMax: 100,
				Rho0: 2800.0 / 3300.0, Alpha: 0.039, TRef: 1,
			},
			LithStrongCrust: {
				Name: "strong crust", Type: "frank-kamenetskii",
				Eta0: 100, N: 3, E: math.Log(1e4),
				Plastic: true, Cohesion: 0.63, CohesionSoft: 0.13, SoftStrain: 1,
				FrictionPhi: math.Pi / 6,
				EtaMin:      1e-2, EtaMax: 100,
				Rho0: 2800.0 / 3300.0, Alpha: 0.039, TRef: 1,
			},
		},
		// Lithology layering with the damage seed: a narrow
		// heterogeneous zone in the centre of the domain along the back
		// (z-max) face (paper Fig. 3) realized as randomized initial
		// plastic strain (strict-interior box, draws in point order).
		Geometry: []Primitive{
			{Kind: "layer", Litho: LithWeakCrust, Axis: 1, From: 1.6, To: 1.8},
			{Kind: "layer", Litho: LithStrongCrust, Axis: 1, From: 1.8, To: ly + 1},
			{Kind: "damage", Seed: o.Seed, Amplitude: 1,
				Box: Box{X0: lx/2 - 0.5, X1: lx/2 + 0.5, Y0: 1.2, Y1: ly + 1, Z0: lz - 2.0, Z1: lz + 1}},
		},
		BCs: bcs,
		// Temperature: conductive profile, T = 1 at the base, 0 at the
		// surface; κ′ = κ/(L₀V₀) ≈ 0.0315.
		Thermal: &ThermalSpec{
			Kappa:    0.0315,
			InitAxis: 1, InitFrom: 1, InitTo: 0,
			FaceTemps: []FaceTemp{{Face: "ymin", Value: 1}, {Face: "ymax", Value: 0}},
		},
		// Stokes configuration of §V-A: V(3,3) cycles, geometric
		// hierarchy, CG+ASM coarse solver (the sub-2k-core regime of
		// the paper).
		Solver: SolverSpec{
			SmoothSteps:  3,
			CoarseSolver: "asmcg",
			MaxIt:        150,
			Restart:      80,
		},
		// Nonlinear controls of §V-A: relative tolerance 10⁻², at most
		// five Newton iterations per step.
		Nonlinear: NonlinearSpec{MaxIt: 5, RTol: 1e-2, EWEta0: 0.1},
	}
}

// RayleighTaylor is the classic buoyancy-driven instability: a dense
// layer over a buoyant half-space with a sinusoidal interface seed,
// slip walls and a free surface.
func RayleighTaylor() Spec {
	return Spec{
		Name:         "rayleigh-taylor",
		Description:  "dense layer over a buoyant half-space, cosine interface perturbation",
		Physics:      "buoyancy-driven instability, interface tracking by material points",
		Domain:       Box{X1: 1, Y1: 1, Z1: 1},
		Resolution:   [3]int{8, 8, 8},
		Small:        [3]int{8, 8, 8},
		PPE:          3,
		Gravity:      [3]float64{0, 0, -9.8},
		VerticalAxis: 2, FreeSurface: true, CFL: 0.25, MaxDt: 0.05,
		Lithologies: []LithologySpec{
			{Name: "buoyant", Type: "constant", Eta0: 0.01, Rho0: 1},
			{Name: "dense", Type: "constant", Eta0: 1, Rho0: 1.3},
		},
		Geometry: []Primitive{
			{Kind: "layer", Litho: 1, Axis: 2, From: 0.5, To: 1.5,
				PerturbAmp: 0.04, PerturbAxis: 0, PerturbMode: 1},
		},
		BCs: []BCSpec{
			{Face: "xmin", Kind: "freeslip"},
			{Face: "xmax", Kind: "freeslip"},
			{Face: "ymin", Kind: "freeslip"},
			{Face: "ymax", Kind: "freeslip"},
			{Face: "zmin", Kind: "freeslip"},
		},
		Nonlinear: NonlinearSpec{MaxIt: 2, RTol: 1e-5, EisenstatWalker: boolp(false)},
	}
}

// Subduction is a thermally coupled one-sided subduction setup: a
// stiff, dense oceanic lithosphere dips under a weak decoupling
// channel into a temperature-dependent mantle. Viscosity spans five
// decades, so the spec widens the FGMRES restart window (see
// SolverSpec.Restart).
func Subduction() Spec {
	return Spec{
		Name:         "subduction",
		Description:  "dense lithosphere subducting through a weak channel into a temperature-dependent mantle",
		Physics:      "thermal coupling, Δη≈1e5 contrast, Drucker-Prager slab, weak-zone decoupling",
		Domain:       Box{X1: 4, Y1: 2, Z1: 1},
		Resolution:   [3]int{16, 8, 8},
		Small:        [3]int{8, 4, 4},
		PPE:          2,
		Gravity:      [3]float64{0, 0, -9.8},
		VerticalAxis: 2, FreeSurface: true,
		CFL: 0.25, MaxDt: 0.01, MinPointsPerElement: 2,
		Lithologies: []LithologySpec{
			{Name: "mantle", Type: "frank-kamenetskii",
				Eta0: 10, N: 1, E: math.Log(1000),
				EtaMin: 1e-2, EtaMax: 100,
				Rho0: 1, Alpha: 0.039, TRef: 1},
			{Name: "lithosphere", Type: "frank-kamenetskii",
				Eta0: 100, N: 1, E: math.Log(100),
				Plastic: true, Cohesion: 0.8, CohesionSoft: 0.2, SoftStrain: 1,
				FrictionPhi: math.Pi / 6,
				EtaMin:      1e-1, EtaMax: 1000,
				Rho0: 1.15, Alpha: 0.039, TRef: 1},
			{Name: "weak channel", Type: "constant",
				Eta0:   0.05,
				EtaMin: 1e-2, EtaMax: 1,
				Rho0: 1},
		},
		Geometry: []Primitive{
			// Lithospheric lid across the whole top.
			{Kind: "layer", Litho: 1, Axis: 2, From: 0.85, To: 1.2},
			// The slab: dips at 45° from the hinge down into the mantle.
			{Kind: "slab", Litho: 1, Hinge: 1.6, DipDeg: 45, Length: 1.0, Thickness: 0.15, Top: 1.0},
			// Weak decoupling channel above the hinge (painted last).
			{Kind: "notch", Litho: 2, Box: Box{X0: 1.45, X1: 1.75, Y0: -1, Y1: 3, Z0: 0.8, Z1: 1.01}},
		},
		BCs: []BCSpec{
			{Face: "xmin", Kind: "freeslip"},
			{Face: "xmax", Kind: "freeslip"},
			{Face: "ymin", Kind: "freeslip"},
			{Face: "ymax", Kind: "freeslip"},
			{Face: "zmin", Kind: "freeslip"},
		},
		Thermal: &ThermalSpec{
			Kappa:    0.05,
			InitAxis: 2, InitFrom: 1, InitTo: 0,
			FaceTemps: []FaceTemp{{Face: "zmin", Value: 1}, {Face: "zmax", Value: 0}},
		},
		Solver:    SolverSpec{SmoothSteps: 3, MaxIt: 200, Restart: 200},
		Nonlinear: NonlinearSpec{MaxIt: 4, RTol: 1e-2, EWEta0: 0.1},
	}
}

// SlabDetachment is a Schmalholz-style necking benchmark: a power-law
// (n = 4) lithosphere with a vertical slab hanging into a low-viscosity
// linear mantle; the slab necks and detaches under its own weight. No
// free surface and no thermal coupling — this spec isolates the
// power-law nonlinearity.
func SlabDetachment() Spec {
	return Spec{
		Name:         "slab-detachment",
		Description:  "power-law lithosphere necking: a hanging slab detaches into a weak linear mantle",
		Physics:      "power-law (n=4) creep, Δη≈1e4 contrast, nonlinear Picard convergence",
		Domain:       Box{X1: 2, Y1: 1, Z1: 1},
		Resolution:   [3]int{16, 8, 8},
		Small:        [3]int{8, 4, 4},
		PPE:          2,
		Gravity:      [3]float64{0, 0, -9.8},
		VerticalAxis: 2, FreeSurface: false,
		CFL: 0.25, MaxDt: 0.01, MinPointsPerElement: 2,
		Lithologies: []LithologySpec{
			{Name: "mantle", Type: "constant", Eta0: 1e-3, Rho0: 1},
			{Name: "lithosphere", Type: "frank-kamenetskii",
				Eta0: 1, N: 4, E: 0,
				EtaMin: 1e-3, EtaMax: 10,
				Rho0: 1.1},
		},
		Geometry: []Primitive{
			{Kind: "layer", Litho: 1, Axis: 2, From: 0.8, To: 1.1},
			{Kind: "notch", Litho: 1, Box: Box{X0: 0.9, X1: 1.1, Y0: -1, Y1: 2, Z0: 0.35, Z1: 0.8}},
		},
		BCs: []BCSpec{
			{Face: "xmin", Kind: "freeslip"},
			{Face: "xmax", Kind: "freeslip"},
			{Face: "ymin", Kind: "freeslip"},
			{Face: "ymax", Kind: "freeslip"},
			{Face: "zmin", Kind: "freeslip"},
			{Face: "zmax", Kind: "freeslip"},
		},
		Solver:    SolverSpec{SmoothSteps: 3, MaxIt: 200, Restart: 200},
		Nonlinear: NonlinearSpec{MaxIt: 5, RTol: 1e-2, EWEta0: 0.1},
	}
}

// SinkerSwarm is the §IV-A sinker pushed to the solver's hard regime:
// a dozen spheres at viscosity contrast 1e5, the configuration whose
// FGMRES iteration stalls at the default restart window of 50 (PR 7) —
// hence Restart 200 here.
func SinkerSwarm() Spec {
	s := Sinker(SinkerOptions{M: 8, Nc: 12, Rc: 0.08, DeltaEta: 1e5, PPE: 3, Seed: 42})
	s.Name = "sinker-swarm"
	s.Description = "12 dense spheres at Δη=1e5: the high-contrast restart-window stress test"
	s.Physics = "extreme viscosity contrast (1e5), FGMRES restart sensitivity, many-body interaction"
	s.Lithologies[1].Rho0 = 1.3
	s.Solver.Restart = 200
	s.Solver.MaxIt = 300
	return s
}
