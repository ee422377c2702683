// Package rheology implements the constitutive models of paper §II-A and
// §V-A: per-lithology effective viscosity laws — constant, and a
// temperature-, pressure- and strain-rate-dependent Arrhenius power law —
// combined with a Drucker–Prager stress limiter that parametrizes brittle
// (plastic) behaviour, plus Boussinesq buoyancy. The effective viscosity
// evaluated at material points feeds the Eq. 12 projection.
package rheology

import "math"

// RGas is the universal gas constant in J/(mol·K).
const RGas = 8.314462618

// ViscosityType selects the creep law.
type ViscosityType int

// Supported creep laws.
const (
	// Constant viscosity: η = Eta0.
	Constant ViscosityType = iota
	// Arrhenius is the power-law creep
	// η = A · ε̇_II^(1/n − 1) · exp(E/(n·R·T)), the form used for the
	// rifting model's crust and mantle lithologies (§V-A).
	Arrhenius
	// FrankKamenetskii is the standard nondimensional linearization of the
	// Arrhenius law, η = A · ε̇_II^(1/n − 1) · exp(−θ·T) with T ∈ [0,1],
	// used by the scaled rifting model (the E field holds θ).
	FrankKamenetskii
)

// Lithology carries the material parameters of one rock type Φ.
type Lithology struct {
	Name string

	// Creep law.
	Type ViscosityType
	Eta0 float64 // constant viscosity, or prefactor A for Arrhenius
	N    float64 // stress exponent n (≥1)
	E    float64 // activation energy [J/mol]

	// Drucker–Prager stress limiter (brittle yield): τ_y = C·cosφ + p·sinφ.
	// Plastic=false disables yielding (ductile-only lithologies).
	Plastic      bool
	Cohesion     float64 // C
	FrictionPhi  float64 // φ in radians
	CohesionSoft float64 // softened cohesion at full damage (strain softening)
	SoftStrain   float64 // plastic strain at which softening saturates

	// Viscosity clipping.
	EtaMin, EtaMax float64

	// Boussinesq density: ρ = Rho0·(1 − α(T − T0)).
	Rho0  float64
	Alpha float64
	TRef  float64
}

// State is the local thermodynamic/kinematic state at a material point or
// quadrature point.
type State struct {
	StrainRateII  float64 // second invariant ε̇_II = √(½ D:D)
	Pressure      float64
	Temperature   float64 // Kelvin (or nondimensional, with E scaled)
	PlasticStrain float64 // accumulated plastic strain (softening variable)
}

// Fields names the State fields a lithology's laws read.
type Fields struct {
	StrainRate, Pressure, Temperature bool
}

// Reads reports which State fields EffectiveViscosity,
// EffectiveViscosityDerivative and Density read for this lithology — the
// creep law reads ε̇_II and T unless it is Constant, the stress limiter
// reads ε̇_II and p, the Boussinesq density reads T when α ≠ 0. The
// three return the same bits whatever a field they do not read holds, so
// a caller may leave it zero instead of evaluating it. PlasticStrain is
// not listed: it is stored per point, not evaluated.
func (l *Lithology) Reads() Fields {
	creep := l.Type != Constant
	return Fields{
		StrainRate:  creep || l.Plastic,
		Pressure:    l.Plastic,
		Temperature: creep || l.Alpha != 0,
	}
}

// cohesion returns the (linearly strain-softened) cohesion.
func (l *Lithology) cohesion(plasticStrain float64) float64 {
	if l.SoftStrain <= 0 || l.CohesionSoft <= 0 {
		return l.Cohesion
	}
	f := plasticStrain / l.SoftStrain
	if f > 1 {
		f = 1
	}
	return l.Cohesion + f*(l.CohesionSoft-l.Cohesion)
}

// ViscousViscosity returns the creep (ductile) viscosity without the
// stress limiter or clipping.
func (l *Lithology) ViscousViscosity(s State) float64 {
	switch l.Type {
	case Arrhenius:
		eII := s.StrainRateII
		if eII < 1e-32 {
			eII = 1e-32
		}
		t := s.Temperature
		if t < 1e-8 {
			t = 1e-8
		}
		return l.Eta0 * math.Pow(eII, 1/l.N-1) * math.Exp(l.E/(l.N*RGas*t))
	case FrankKamenetskii:
		eII := s.StrainRateII
		if eII < 1e-32 {
			eII = 1e-32
		}
		n := l.N
		if n <= 0 {
			n = 1
		}
		return l.Eta0 * math.Pow(eII, 1/n-1) * math.Exp(-l.E*s.Temperature)
	default:
		return l.Eta0
	}
}

// YieldViscosity returns the Drucker–Prager limiter viscosity
// η_y = τ_y/(2·ε̇_II), or +Inf when the lithology does not yield.
func (l *Lithology) YieldViscosity(s State) float64 {
	if !l.Plastic {
		return math.Inf(1)
	}
	p := s.Pressure
	if p < 0 {
		p = 0 // tensile pressure does not strengthen the yield surface
	}
	tauY := l.cohesion(s.PlasticStrain)*math.Cos(l.FrictionPhi) + p*math.Sin(l.FrictionPhi)
	eII := s.StrainRateII
	if eII < 1e-32 {
		eII = 1e-32
	}
	return tauY / (2 * eII)
}

// EffectiveViscosity composes the creep law with the stress limiter
// (η = min(η_v, η_y)) and clips to [EtaMin, EtaMax]. The second return
// reports whether the yield branch is active (used to accumulate plastic
// strain).
func (l *Lithology) EffectiveViscosity(s State) (eta float64, yielding bool) {
	ev := l.ViscousViscosity(s)
	ey := l.YieldViscosity(s)
	eta = ev
	if ey < ev {
		eta = ey
		yielding = true
	}
	if l.EtaMax > 0 && eta > l.EtaMax {
		eta = l.EtaMax
	}
	if l.EtaMin > 0 && eta < l.EtaMin {
		eta = l.EtaMin
		// Clipped to the floor: the yield branch no longer controls the
		// stress, so do not accumulate plastic strain from it.
	}
	return eta, yielding
}

// EffectiveViscosityDerivative returns η and dη/dε̇_II of the effective
// (clipped, limited) law — the scalar η′ of the Newton linearization
// (paper §III-A). The derivative is computed analytically on whichever
// branch is active and zero on the clip bounds.
func (l *Lithology) EffectiveViscosityDerivative(s State) (eta, detaDe float64) {
	ev := l.ViscousViscosity(s)
	ey := l.YieldViscosity(s)
	eII := s.StrainRateII
	if eII < 1e-32 {
		eII = 1e-32
	}
	if ey < ev {
		eta = ey
		detaDe = -ey / eII // η_y ∝ 1/ε̇ ⇒ dη/dε̇ = −η/ε̇
	} else {
		eta = ev
		if l.Type == Arrhenius || (l.Type == FrankKamenetskii && l.N > 0) {
			detaDe = (1/l.N - 1) * ev / eII
		}
	}
	if l.EtaMax > 0 && eta > l.EtaMax {
		return l.EtaMax, 0
	}
	if l.EtaMin > 0 && eta < l.EtaMin {
		return l.EtaMin, 0
	}
	return eta, detaDe
}

// Density returns the Boussinesq density ρ = Rho0·(1 − α(T − T0)).
func (l *Lithology) Density(s State) float64 {
	return l.Rho0 * (1 - l.Alpha*(s.Temperature-l.TRef))
}

// Table is an indexed set of lithologies (Φ → parameters).
type Table []Lithology

// Eta evaluates the effective viscosity of lithology phi at state s.
func (t Table) Eta(phi int32, s State) float64 {
	eta, _ := t[phi].EffectiveViscosity(s)
	return eta
}

// Rho evaluates the density of lithology phi at state s.
func (t Table) Rho(phi int32, s State) float64 { return t[phi].Density(s) }
