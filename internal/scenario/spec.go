// Package scenario is the declarative model-definition layer: a Spec
// describes a time-dependent model — domain, resolution, lithology
// table, geometry primitives, boundary conditions, thermal state and
// solver/nonlinear controls — as plain data, and Compile lowers it into
// a ready-to-step model.Model. The paper's two hard-wired model
// problems (the §IV-A sinker and the §V continental rift) are specs in
// the built-in registry, alongside Rayleigh–Taylor, subduction,
// slab-detachment and sinker-swarm scenarios; user specs load from
// JSON files with the same schema.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/rheology"
)

// Box is an axis-aligned box, used for the domain and for box-shaped
// geometry primitives.
type Box struct {
	X0 float64 `json:"x0"`
	X1 float64 `json:"x1"`
	Y0 float64 `json:"y0"`
	Y1 float64 `json:"y1"`
	Z0 float64 `json:"z0"`
	Z1 float64 `json:"z1"`
}

// Lo returns the lower corner.
func (b Box) Lo() [3]float64 { return [3]float64{b.X0, b.Y0, b.Z0} }

// Hi returns the upper corner.
func (b Box) Hi() [3]float64 { return [3]float64{b.X1, b.Y1, b.Z1} }

// Contains reports whether (x,y,z) lies in the half-open box.
func (b Box) Contains(x, y, z float64) bool {
	return x >= b.X0 && x < b.X1 && y >= b.Y0 && y < b.Y1 && z >= b.Z0 && z < b.Z1
}

// LithologySpec is the JSON-friendly form of one rheology.Lithology row.
// Type is "constant", "arrhenius" or "frank-kamenetskii".
type LithologySpec struct {
	Name         string  `json:"name"`
	Type         string  `json:"type"`
	Eta0         float64 `json:"eta0"`
	N            float64 `json:"n,omitempty"`
	E            float64 `json:"e,omitempty"`
	Plastic      bool    `json:"plastic,omitempty"`
	Cohesion     float64 `json:"cohesion,omitempty"`
	FrictionPhi  float64 `json:"friction_phi,omitempty"`
	CohesionSoft float64 `json:"cohesion_soft,omitempty"`
	SoftStrain   float64 `json:"soft_strain,omitempty"`
	EtaMin       float64 `json:"eta_min,omitempty"`
	EtaMax       float64 `json:"eta_max,omitempty"`
	Rho0         float64 `json:"rho0"`
	Alpha        float64 `json:"alpha,omitempty"`
	TRef         float64 `json:"tref,omitempty"`
}

// lower converts the spec row to the rheology table entry.
func (l LithologySpec) lower() (rheology.Lithology, error) {
	out := rheology.Lithology{
		Name: l.Name, Eta0: l.Eta0, N: l.N, E: l.E,
		Plastic: l.Plastic, Cohesion: l.Cohesion, FrictionPhi: l.FrictionPhi,
		CohesionSoft: l.CohesionSoft, SoftStrain: l.SoftStrain,
		EtaMin: l.EtaMin, EtaMax: l.EtaMax,
		Rho0: l.Rho0, Alpha: l.Alpha, TRef: l.TRef,
	}
	switch l.Type {
	case "", "constant":
		out.Type = rheology.Constant
	case "arrhenius":
		out.Type = rheology.Arrhenius
	case "frank-kamenetskii":
		out.Type = rheology.FrankKamenetskii
	default:
		return out, fmt.Errorf("scenario: lithology %q: unknown creep law %q", l.Name, l.Type)
	}
	return out, nil
}

// BCSpec is one ordered boundary-condition operation. Kind "freeslip"
// zeroes the face-normal velocity component; kind "velocity" pins
// Component to Value on the face. Order matters for bit-exact
// reproduction of the legacy constructors (later operations overwrite
// earlier ones on shared edges).
type BCSpec struct {
	Face      string  `json:"face"` // xmin,xmax,ymin,ymax,zmin,zmax
	Kind      string  `json:"kind"` // "freeslip" or "velocity"
	Component int     `json:"component,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// parseFace maps a face name to the mesh face index.
func parseFace(s string) (mesh.Face, error) {
	switch s {
	case "xmin":
		return mesh.XMin, nil
	case "xmax":
		return mesh.XMax, nil
	case "ymin":
		return mesh.YMin, nil
	case "ymax":
		return mesh.YMax, nil
	case "zmin":
		return mesh.ZMin, nil
	case "zmax":
		return mesh.ZMax, nil
	}
	return 0, fmt.Errorf("scenario: unknown face %q", s)
}

// FaceTemp pins the temperature on one face (Dirichlet).
type FaceTemp struct {
	Face  string  `json:"face"`
	Value float64 `json:"value"`
}

// ThermalSpec enables the energy equation: SUPG advection-diffusion
// with diffusivity Kappa, Dirichlet faces, and a linear initial profile
// along InitAxis running from InitFrom at the low face to InitTo at the
// high face (evaluated on the vertex index fraction, so it is exact on
// the undeformed mesh).
type ThermalSpec struct {
	Kappa     float64    `json:"kappa"`
	FaceTemps []FaceTemp `json:"face_temps,omitempty"`
	InitAxis  int        `json:"init_axis"`
	InitFrom  float64    `json:"init_from"`
	InitTo    float64    `json:"init_to"`
}

// SolverSpec selects the Stokes solver configuration; zero values keep
// the stokes.DefaultConfig production defaults. Levels == 0 picks the
// deepest usable geometric hierarchy automatically (halve while all
// element counts stay even and ≥ 4, max 3 levels — the paper's rift
// configuration).
type SolverSpec struct {
	Levels       int     `json:"levels,omitempty"`
	SmoothSteps  int     `json:"smooth_steps,omitempty"`
	CoarseSolver string  `json:"coarse_solver,omitempty"`
	OuterMethod  string  `json:"outer_method,omitempty"`
	FineKind     string  `json:"fine_kind,omitempty"`
	Precision    string  `json:"precision,omitempty"`
	RTol         float64 `json:"rtol,omitempty"`
	MaxIt        int     `json:"max_it,omitempty"`
	// Restart widens the FGMRES restart window
	// (stokes.Config.Params.Restart); specs with viscosity contrast
	// Δη ≥ 1e5 should set ≥ 200.
	Restart int `json:"restart,omitempty"`
}

// NonlinearSpec controls the outer Picard/Newton iteration; zero values
// keep nonlinear.DefaultOptions. EisenstatWalker is a tri-state (nil =
// default on).
type NonlinearSpec struct {
	MaxIt           int     `json:"max_it,omitempty"`
	RTol            float64 `json:"rtol,omitempty"`
	EisenstatWalker *bool   `json:"eisenstat_walker,omitempty"`
	EWEta0          float64 `json:"ew_eta0,omitempty"`
}

// Spec is a complete declarative scenario. Material points classify to
// lithology 0 by default; Geometry primitives paint later entries over
// earlier ones in order.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Physics is the one-line "what this exercises" note shown by
	// ptatin-run -list and the README scenario table.
	Physics string `json:"physics,omitempty"`

	Domain     Box    `json:"domain"`
	Resolution [3]int `json:"resolution"`
	// Small is the reduced resolution used by the 2-step smoke runs and
	// the shared-vs-distributed equivalence tests; zero falls back to
	// Resolution. Every axis must stay divisible by the smoke rank grid
	// on every geometric level.
	Small [3]int `json:"small,omitempty"`
	PPE   int    `json:"ppe,omitempty"`

	Gravity             [3]float64 `json:"gravity"`
	VerticalAxis        int        `json:"vertical_axis"`
	FreeSurface         bool       `json:"free_surface,omitempty"`
	CFL                 float64    `json:"cfl,omitempty"`
	MaxDt               float64    `json:"max_dt,omitempty"`
	MinPointsPerElement int        `json:"min_points_per_element,omitempty"`
	UseNewton           bool       `json:"use_newton,omitempty"`

	Lithologies []LithologySpec `json:"lithologies"`
	Geometry    []Primitive     `json:"geometry,omitempty"`
	BCs         []BCSpec        `json:"bcs"`
	Thermal     *ThermalSpec    `json:"thermal,omitempty"`
	Solver      SolverSpec      `json:"solver,omitempty"`
	Nonlinear   NonlinearSpec   `json:"nonlinear,omitempty"`
}

// SmallResolution returns the smoke-test resolution (Small, falling
// back to Resolution).
func (s Spec) SmallResolution() [3]int {
	if s.Small != [3]int{} {
		return s.Small
	}
	return s.Resolution
}

// Validate checks the spec for structural errors before compilation.
func (s Spec) Validate() error {
	for a := 0; a < 3; a++ {
		if s.Resolution[a] <= 0 {
			return fmt.Errorf("scenario %q: resolution[%d] = %d, want > 0", s.Name, a, s.Resolution[a])
		}
	}
	lo, hi := s.Domain.Lo(), s.Domain.Hi()
	for a := 0; a < 3; a++ {
		if !(hi[a] > lo[a]) {
			return fmt.Errorf("scenario %q: empty domain extent on axis %d", s.Name, a)
		}
	}
	if s.VerticalAxis < 0 || s.VerticalAxis > 2 {
		return fmt.Errorf("scenario %q: vertical axis %d out of range", s.Name, s.VerticalAxis)
	}
	if len(s.Lithologies) == 0 {
		return fmt.Errorf("scenario %q: lithology table is empty", s.Name)
	}
	for i, l := range s.Lithologies {
		if _, err := l.lower(); err != nil {
			return err
		}
		if l.Eta0 <= 0 && l.Type != "" {
			return fmt.Errorf("scenario %q: lithology %d (%s): eta0 must be positive", s.Name, i, l.Name)
		}
	}
	for i, p := range s.Geometry {
		if err := p.validate(len(s.Lithologies)); err != nil {
			return fmt.Errorf("scenario %q: geometry[%d]: %w", s.Name, i, err)
		}
	}
	for _, b := range s.BCs {
		if _, err := parseFace(b.Face); err != nil {
			return err
		}
		switch b.Kind {
		case "freeslip":
		case "velocity":
			if b.Component < 0 || b.Component > 2 {
				return fmt.Errorf("scenario %q: bc on %s: component %d out of range", s.Name, b.Face, b.Component)
			}
		default:
			return fmt.Errorf("scenario %q: bc on %s: unknown kind %q", s.Name, b.Face, b.Kind)
		}
	}
	if t := s.Thermal; t != nil {
		if t.Kappa <= 0 {
			return fmt.Errorf("scenario %q: thermal kappa must be positive", s.Name)
		}
		if t.InitAxis < 0 || t.InitAxis > 2 {
			return fmt.Errorf("scenario %q: thermal init axis %d out of range", s.Name, t.InitAxis)
		}
		for _, ft := range t.FaceTemps {
			if _, err := parseFace(ft.Face); err != nil {
				return err
			}
		}
	}
	if p := s.Solver.Precision; p != "" && p != "f64" && p != "f32" {
		return fmt.Errorf("scenario %q: solver precision %q (want f64 or f32)", s.Name, p)
	}
	if om := s.Solver.OuterMethod; om != "" {
		if err := krylov.CheckMethod(om); err != nil {
			return fmt.Errorf("scenario %q: solver outer_method: %w", s.Name, err)
		}
	}
	_, err := solverConfig(s, 1)
	return err
}

// autoLevels picks the deepest usable geometric hierarchy (max 3, as in
// the paper's rift configuration): halve while every element count
// stays even and at least 4.
func autoLevels(mx, my, mz int) int {
	n := 1
	for mx%2 == 0 && my%2 == 0 && mz%2 == 0 && mx >= 4 && my >= 4 && mz >= 4 && n < 3 {
		mx, my, mz = mx/2, my/2, mz/2
		n++
	}
	return n
}

// RemovedKeyError reports a key of a saved spec that earlier versions
// accepted and this one no longer has.
type RemovedKeyError struct {
	File, Key, Why string
}

func (e *RemovedKeyError) Error() string {
	return fmt.Sprintf("scenario: %s: key %q was removed: %s", e.File, e.Key, e.Why)
}

// removedSolverKeys are the former keys of the "solver" object.
var removedSolverKeys = map[string]string{
	"blocked": "every level with a resident operator smooths wavefront-blocked; delete the key",
}

// Load reads a Spec from a JSON file. Decoding is strict: an unknown key
// is an error, and a removed one a *RemovedKeyError.
func Load(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	var old struct {
		Solver map[string]json.RawMessage `json:"solver"`
	}
	if json.Unmarshal(data, &old) == nil {
		for key, why := range removedSolverKeys {
			if _, ok := old.Solver[key]; ok {
				return s, &RemovedKeyError{File: path, Key: "solver." + key, Why: why}
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// Save writes the spec as indented JSON.
func (s Spec) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
