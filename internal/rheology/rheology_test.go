package rheology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstantViscosity(t *testing.T) {
	l := Lithology{Type: Constant, Eta0: 5}
	if eta, y := l.EffectiveViscosity(State{StrainRateII: 1}); eta != 5 || y {
		t.Fatalf("eta=%v yielding=%v", eta, y)
	}
}

func TestArrheniusShearThinning(t *testing.T) {
	// n>1 power law: viscosity decreases with strain rate.
	l := Lithology{Type: Arrhenius, Eta0: 1e4, N: 3, E: 1.9e5}
	s1 := State{StrainRateII: 1e-15, Temperature: 1000}
	s2 := State{StrainRateII: 1e-13, Temperature: 1000}
	e1 := l.ViscousViscosity(s1)
	e2 := l.ViscousViscosity(s2)
	if e2 >= e1 {
		t.Fatalf("no shear thinning: %v -> %v", e1, e2)
	}
	// Ratio follows ε̇^(1/n−1): factor 100 in rate ⇒ 100^(-2/3).
	want := math.Pow(100, 1.0/3-1)
	if got := e2 / e1; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("thinning ratio %v, want %v", got, want)
	}
}

func TestArrheniusTemperatureWeakening(t *testing.T) {
	l := Lithology{Type: Arrhenius, Eta0: 1, N: 1, E: 1.9e5}
	cold := l.ViscousViscosity(State{StrainRateII: 1e-15, Temperature: 600})
	hot := l.ViscousViscosity(State{StrainRateII: 1e-15, Temperature: 1500})
	if hot >= cold {
		t.Fatalf("no thermal weakening: cold %v, hot %v", cold, hot)
	}
	// Arrhenius form: ratio = exp(E/R (1/Tc - 1/Th)).
	want := math.Exp(l.E / RGas * (1/600.0 - 1/1500.0))
	if got := cold / hot; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ratio %v, want %v", got, want)
	}
}

func TestDruckerPragerLimiter(t *testing.T) {
	l := Lithology{
		Type: Constant, Eta0: 1e6,
		Plastic: true, Cohesion: 10, FrictionPhi: math.Pi / 6, // 30°
	}
	// High strain rate: yield viscosity below creep viscosity.
	s := State{StrainRateII: 1.0, Pressure: 100}
	eta, yielding := l.EffectiveViscosity(s)
	wantTau := 10*math.Cos(math.Pi/6) + 100*math.Sin(math.Pi/6)
	if !yielding {
		t.Fatal("limiter not active")
	}
	if math.Abs(eta-wantTau/2) > 1e-12 {
		t.Fatalf("yield viscosity %v, want %v", eta, wantTau/2)
	}
	// The implied stress is exactly the yield stress: 2·η·ε̇ = τ_y.
	if tau := 2 * eta * s.StrainRateII; math.Abs(tau-wantTau) > 1e-12 {
		t.Fatalf("stress %v exceeds yield %v", tau, wantTau)
	}
	// Low strain rate: creep wins.
	if _, y := l.EffectiveViscosity(State{StrainRateII: 1e-9, Pressure: 100}); y {
		t.Fatal("limiter active at negligible strain rate")
	}
}

func TestNegativePressureDoesNotStrengthen(t *testing.T) {
	l := Lithology{Type: Constant, Eta0: 1e9, Plastic: true, Cohesion: 10, FrictionPhi: math.Pi / 6}
	e1 := l.YieldViscosity(State{StrainRateII: 1, Pressure: -50})
	e2 := l.YieldViscosity(State{StrainRateII: 1, Pressure: 0})
	if e1 != e2 {
		t.Fatalf("tensile pressure changed yield: %v vs %v", e1, e2)
	}
}

func TestStrainSoftening(t *testing.T) {
	l := Lithology{
		Type: Constant, Eta0: 1e9, Plastic: true,
		Cohesion: 20, CohesionSoft: 4, SoftStrain: 1,
		FrictionPhi: 0,
	}
	fresh := l.YieldViscosity(State{StrainRateII: 1})
	half := l.YieldViscosity(State{StrainRateII: 1, PlasticStrain: 0.5})
	full := l.YieldViscosity(State{StrainRateII: 1, PlasticStrain: 5})
	if !(full < half && half < fresh) {
		t.Fatalf("softening not monotone: %v %v %v", fresh, half, full)
	}
	if math.Abs(full-4.0/2) > 1e-12 {
		t.Fatalf("saturated yield %v, want 2", full)
	}
}

func TestViscosityClipping(t *testing.T) {
	l := Lithology{Type: Constant, Eta0: 1e30, EtaMax: 1e3, EtaMin: 1e-3}
	if eta, _ := l.EffectiveViscosity(State{}); eta != 1e3 {
		t.Fatalf("max clip: %v", eta)
	}
	l2 := Lithology{Type: Constant, Eta0: 1e-30, EtaMax: 1e3, EtaMin: 1e-3}
	if eta, _ := l2.EffectiveViscosity(State{}); eta != 1e-3 {
		t.Fatalf("min clip: %v", eta)
	}
}

// TestDerivativeMatchesFiniteDifference: the analytic η′ of the Newton
// linearization agrees with a central difference on both branches.
func TestDerivativeMatchesFiniteDifference(t *testing.T) {
	lith := []Lithology{
		{Type: Arrhenius, Eta0: 1e3, N: 3.5, E: 2e5},
		{Type: Constant, Eta0: 1e5, Plastic: true, Cohesion: 10, FrictionPhi: 0.5},
	}
	for li, l := range lith {
		for _, e := range []float64{1e-4, 1e-2, 1} {
			s := State{StrainRateII: e, Pressure: 50, Temperature: 900}
			_, d := l.EffectiveViscosityDerivative(s)
			h := e * 1e-6
			sp, sm := s, s
			sp.StrainRateII += h
			sm.StrainRateII -= h
			ep, _ := l.EffectiveViscosity(sp)
			em, _ := l.EffectiveViscosity(sm)
			fd := (ep - em) / (2 * h)
			if math.Abs(d-fd) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("lith %d ε̇=%g: analytic %v, FD %v", li, e, d, fd)
			}
		}
	}
}

func TestBoussinesqDensity(t *testing.T) {
	l := Lithology{Rho0: 3300, Alpha: 3e-5, TRef: 273}
	if rho := l.Density(State{Temperature: 273}); rho != 3300 {
		t.Fatalf("reference density %v", rho)
	}
	hot := l.Density(State{Temperature: 1573})
	if hot >= 3300 {
		t.Fatal("no thermal buoyancy")
	}
	want := 3300 * (1 - 3e-5*1300)
	if math.Abs(hot-want) > 1e-9 {
		t.Fatalf("density %v, want %v", hot, want)
	}
}

// Property: effective viscosity is always within the clip bounds and
// positive for arbitrary states.
func TestEffectiveViscosityBoundsProperty(t *testing.T) {
	l := Lithology{
		Type: Arrhenius, Eta0: 1e2, N: 3, E: 1.5e5,
		Plastic: true, Cohesion: 5, FrictionPhi: 0.5,
		EtaMin: 1e-4, EtaMax: 1e6,
	}
	f := func(e, p, temp, ps float64) bool {
		s := State{
			StrainRateII:  math.Abs(e),
			Pressure:      p,
			Temperature:   math.Abs(temp),
			PlasticStrain: math.Abs(ps),
		}
		eta, _ := l.EffectiveViscosity(s)
		return eta >= l.EtaMin && eta <= l.EtaMax && !math.IsNaN(eta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tab := Table{
		{Name: "a", Type: Constant, Eta0: 1, Rho0: 10},
		{Name: "b", Type: Constant, Eta0: 2, Rho0: 20},
	}
	if tab.Eta(1, State{}) != 2 || tab.Rho(0, State{}) != 10 {
		t.Fatal("table lookup wrong")
	}
}

// TestReadsCoversEveryField: for every creep law with and without the
// stress limiter and thermal expansion, a state field Reads does not list
// can be anything — η, yielding, η′ and ρ keep their bits — and a field it
// lists moves one of them at some state, so the list is not padded.
func TestReadsCoversEveryField(t *testing.T) {
	type outputs struct {
		eta, etaD, deta, rho uint64
		yielding             bool
	}
	eval := func(l *Lithology, s State) outputs {
		eta, y := l.EffectiveViscosity(s)
		etaD, d := l.EffectiveViscosityDerivative(s)
		return outputs{math.Float64bits(eta), math.Float64bits(etaD), math.Float64bits(d), math.Float64bits(l.Density(s)), y}
	}
	fields := []struct {
		name  string
		read  func(Fields) bool
		field func(*State) *float64
	}{
		{"strain rate", func(f Fields) bool { return f.StrainRate }, func(s *State) *float64 { return &s.StrainRateII }},
		{"pressure", func(f Fields) bool { return f.Pressure }, func(s *State) *float64 { return &s.Pressure }},
		{"temperature", func(f Fields) bool { return f.Temperature }, func(s *State) *float64 { return &s.Temperature }},
	}
	rng := rand.New(rand.NewSource(25))
	// A log-uniform magnitude spans the Kelvin temperatures of the
	// Arrhenius law and the [0, 1] ones of Frank-Kamenetskii alike.
	logUniform := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*rng.Float64()) }
	draw := func() State {
		return State{
			StrainRateII:  logUniform(-8, 2),
			Pressure:      -50 + 550*rng.Float64(),
			Temperature:   logUniform(-2, 3.3),
			PlasticStrain: 2 * rng.Float64(),
		}
	}
	for _, law := range []Lithology{
		// Weak enough that creep, not only the limiter, wins at some states.
		{Type: Constant, Eta0: 1e2},
		{Type: Arrhenius, Eta0: 1, N: 3.5, E: 2e4},
		{Type: FrankKamenetskii, Eta0: 5, N: 3, E: 2},
	} {
		for _, plastic := range []bool{false, true} {
			for _, alpha := range []float64{0, 3e-5} {
				l := law
				l.Rho0, l.Alpha, l.TRef, l.EtaMin, l.EtaMax = 3300, alpha, 273, 1e-6, 1e12
				if plastic {
					l.Plastic, l.Cohesion, l.FrictionPhi, l.CohesionSoft, l.SoftStrain = true, 10, 0.5, 2, 1
				}
				reads := l.Reads()
				for _, f := range fields {
					moved := 0
					for k := 0; k < 200; k++ {
						s := draw()
						if k == 0 {
							s = State{}
						}
						p, q := s, draw()
						*f.field(&p) = *f.field(&q)
						if eval(&l, s) != eval(&l, p) {
							moved++
						}
					}
					switch read := f.read(reads); {
					case !read && moved > 0:
						t.Errorf("type %d plastic %v α %g: Reads leaves out the %s, which moved the outputs at %d of 200 states", l.Type, plastic, alpha, f.name, moved)
					case read && moved == 0:
						t.Errorf("type %d plastic %v α %g: Reads lists the %s, which moved nothing at 200 states", l.Type, plastic, alpha, f.name)
					}
				}
			}
		}
	}
}

func TestFrankKamenetskii(t *testing.T) {
	l := Lithology{Type: FrankKamenetskii, Eta0: 10, N: 1, E: math.Log(1000)}
	top := l.ViscousViscosity(State{StrainRateII: 1, Temperature: 0})
	bot := l.ViscousViscosity(State{StrainRateII: 1, Temperature: 1})
	if math.Abs(top-10) > 1e-12 {
		t.Fatalf("surface viscosity %v, want 10", top)
	}
	if math.Abs(top/bot-1000) > 1e-9*1000 {
		t.Fatalf("FK contrast %v, want 1000", top/bot)
	}
	// Power-law FK derivative consistent with finite differences.
	l2 := Lithology{Type: FrankKamenetskii, Eta0: 5, N: 3, E: 2}
	s := State{StrainRateII: 0.3, Temperature: 0.5}
	_, d := l2.EffectiveViscosityDerivative(s)
	h := 1e-8
	sp, sm := s, s
	sp.StrainRateII += h
	sm.StrainRateII -= h
	fd := (l2.ViscousViscosity(sp) - l2.ViscousViscosity(sm)) / (2 * h)
	if math.Abs(d-fd) > 1e-5*(1+math.Abs(fd)) {
		t.Fatalf("FK derivative %v, FD %v", d, fd)
	}
}
