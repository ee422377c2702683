package scenario

import (
	"fmt"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/model"
	"ptatin3d/internal/mpm"
	"ptatin3d/internal/nonlinear"
	"ptatin3d/internal/op"
	"ptatin3d/internal/rheology"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/thermal"
)

// Compile lowers the spec into a ready-to-step model: mesh + boundary
// conditions, material-point lattice classified by the geometry
// primitives, lithology table, solver and nonlinear configuration,
// thermal state, with the zero state's coefficients projected and
// installed. Workers is the intra-node parallel width (≤0 means 1).
func Compile(spec Spec, workers int) (*model.Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	ppe := spec.PPE
	if ppe <= 0 {
		ppe = 2
	}

	mx, my, mz := spec.Resolution[0], spec.Resolution[1], spec.Resolution[2]
	da := mesh.New(mx, my, mz,
		spec.Domain.X0, spec.Domain.X1,
		spec.Domain.Y0, spec.Domain.Y1,
		spec.Domain.Z0, spec.Domain.Z1)
	bc := mesh.NewBC(da)
	for _, b := range spec.BCs {
		f, err := parseFace(b.Face)
		if err != nil {
			return nil, err
		}
		switch b.Kind {
		case "freeslip":
			bc.FreeSlipBox(da, f)
		case "velocity":
			bc.SetFaceComponent(da, f, b.Component, b.Value)
		}
	}
	prob := fem.NewProblem(da, bc)
	prob.Workers = workers
	prob.Gravity = spec.Gravity

	pts := mpm.NewLattice(prob, ppe, classifier(spec))
	applyDamage(spec, pts)

	lith := make(rheology.Table, len(spec.Lithologies))
	for i, l := range spec.Lithologies {
		row, err := l.lower()
		if err != nil {
			return nil, err
		}
		lith[i] = row
	}

	cfg, err := solverConfig(spec, workers)
	if err != nil {
		return nil, err
	}
	nl := nonlinearOptions(spec)

	m := &model.Model{
		Prob: prob, Points: pts, Lith: lith,
		Cfg:          cfg,
		Backend:      model.SharedBackend{},
		VerticalAxis: spec.VerticalAxis,
		FreeSurface:  spec.FreeSurface,
		CFL:          spec.CFL,
		MaxDt:        spec.MaxDt,
		UseNewton:    spec.UseNewton,
		Workers:      workers,
		Nonlinear:    nl,

		MinPointsPerElement: spec.MinPointsPerElement,
	}

	if t := spec.Thermal; t != nil {
		temp := make([]float64, da.NVertices())
		div := [3]int{da.Mx, da.My, da.Mz}[t.InitAxis]
		for v := range temp {
			i, j, k := da.VertexIJK(v)
			idx := [3]int{i, j, k}[t.InitAxis]
			frac := float64(idx) / float64(div)
			temp[v] = t.InitFrom + (t.InitTo-t.InitFrom)*frac
		}
		ts := thermal.New(prob, t.Kappa)
		for _, ft := range t.FaceTemps {
			f, err := parseFace(ft.Face)
			if err != nil {
				return nil, err
			}
			ts.SetFaceTemperature(f, ft.Value)
		}
		m.T = ts
		m.Temp = temp
	}

	m.UpdateCoefficients(make([]float64, da.NVelDOF()+da.NPresDOF()), false)
	return m, nil
}

// MustCompile is Compile for specs known to be valid (the built-in
// registry); it panics on error.
func MustCompile(spec Spec, workers int) *model.Model {
	m, err := Compile(spec, workers)
	if err != nil {
		panic(err)
	}
	return m
}

// solverConfig lowers the SolverSpec onto stokes.DefaultConfig, rejecting
// a fine_kind that names no representation or that op.Layout refuses.
func solverConfig(spec Spec, workers int) (stokes.Config, error) {
	cfg := stokes.DefaultConfig()
	cfg.Workers = workers
	s := spec.Solver
	if s.Levels > 0 {
		cfg.Levels = s.Levels
	} else {
		cfg.Levels = autoLevels(spec.Resolution[0], spec.Resolution[1], spec.Resolution[2])
	}
	if s.SmoothSteps > 0 {
		cfg.SmoothSteps = s.SmoothSteps
	}
	if s.CoarseSolver != "" {
		cfg.CoarseSolver = s.CoarseSolver
	}
	if s.OuterMethod != "" {
		cfg.OuterMethod = s.OuterMethod
	}
	if s.FineKind != "" {
		k, err := op.ParseKind(s.FineKind)
		if err != nil {
			return cfg, fmt.Errorf("scenario %q: solver fine_kind: %w", spec.Name, err)
		}
		cfg.FineKind = k
	}
	if s.Precision == "f32" {
		cfg.Precision = op.F32
	}
	if s.RTol > 0 {
		cfg.Params.RTol = s.RTol
	}
	if s.MaxIt > 0 {
		cfg.Params.MaxIt = s.MaxIt
	}
	if s.Restart > 0 {
		cfg.Params.Restart = s.Restart
	}
	if _, _, err := op.Layout(cfg.Levels, cfg.FineKind, cfg.Precision); err != nil {
		return cfg, fmt.Errorf("scenario %q: solver fine_kind: %w", spec.Name, err)
	}
	return cfg, nil
}

// nonlinearOptions lowers the NonlinearSpec onto the defaults.
func nonlinearOptions(spec Spec) nonlinear.Options {
	nl := nonlinear.DefaultOptions()
	s := spec.Nonlinear
	if s.MaxIt > 0 {
		nl.MaxIt = s.MaxIt
	}
	if s.RTol > 0 {
		nl.RTol = s.RTol
	}
	if s.EisenstatWalker != nil {
		nl.EisenstatWalker = *s.EisenstatWalker
	}
	if s.EWEta0 > 0 {
		nl.EWEta0 = s.EWEta0
	}
	return nl
}
