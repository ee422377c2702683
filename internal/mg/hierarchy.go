package mg

import (
	"ptatin3d/internal/fem"
	"ptatin3d/internal/mesh"
)

// CoarsenProblems builds the nlevels-deep hierarchy of discretizations
// under fine (index 0 = finest). Meshes coarsen geometrically with nodally
// nested coordinates; boundary constraints are inherited by injection.
// setCoeff fills each coarse level's coefficients (level index ≥ 1) —
// typically by re-evaluating a viscosity function on the coarse mesh
// (rediscretization) or by full-weighting the projected material-point
// vertex fields (VertexCoeffCoarsener). If setCoeff is nil the coarse
// coefficients default to injection of nothing (η=1, ρ=0).
func CoarsenProblems(fine *fem.Problem, nlevels int, setCoeff func(level int, p *fem.Problem)) []*fem.Problem {
	probs := make([]*fem.Problem, nlevels)
	probs[0] = fine
	for l := 1; l < nlevels; l++ {
		prev := probs[l-1]
		cda := prev.DA.Coarsen()
		cbc := mesh.CoarsenBC(prev.DA, cda, prev.BC)
		p := fem.NewProblem(cda, cbc)
		p.Workers = prev.Workers
		p.Gravity = prev.Gravity
		if setCoeff != nil {
			setCoeff(l, p)
		}
		probs[l] = p
	}
	return probs
}

// VertexCoeffCoarsener returns a setCoeff callback for CoarsenProblems
// that restricts vertex-grid viscosity/density fields down the hierarchy
// by full weighting and installs them at the quadrature points of each
// level — the rediscretization path used when coefficients come from the
// material-point projection. Full weighting stands in for re-projecting
// the material points onto each coarse level (paper §II-C); plain
// injection subsamples high-contrast fields and measurably degrades
// multigrid convergence (see the Δη robustness tests). etaV/rhoV live on
// the finest vertex grid; pass nil to skip a field. Both are averaged
// arithmetically, the only mean mesh.RestrictVertexFW has.
func VertexCoeffCoarsener(fineDA *mesh.DA, etaV, rhoV []float64) func(level int, p *fem.Problem) {
	prevDA := fineDA
	prevEta, prevRho := etaV, rhoV
	return func(level int, p *fem.Problem) {
		if level <= 1 {
			// A new descent (CoarsenProblems starts at level 1): restart
			// from the fine grid so the closure is reusable across
			// hierarchy builds instead of restricting from the previous
			// hierarchy's coarsest level.
			prevDA, prevEta, prevRho = fineDA, etaV, rhoV
		}
		var ce, cr []float64
		if prevEta != nil {
			ce = make([]float64, p.DA.NVertices())
			mesh.RestrictVertexFW(prevDA, p.DA, prevEta, ce)
		}
		if prevRho != nil {
			cr = make([]float64, p.DA.NVertices())
			mesh.RestrictVertexFW(prevDA, p.DA, prevRho, cr)
		}
		p.SetCoefficientsVertex(ce, cr)
		prevDA, prevEta, prevRho = p.DA, ce, cr
	}
}

// FuncCoeffCoarsener returns a setCoeff callback that re-evaluates
// pointwise coefficient functions on each coarse level (exact
// rediscretization).
func FuncCoeffCoarsener(eta, rho func(x, y, z float64) float64) func(level int, p *fem.Problem) {
	return func(level int, p *fem.Problem) {
		p.SetCoefficientsFunc(eta, rho)
	}
}
