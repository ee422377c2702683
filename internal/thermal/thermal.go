// Package thermal solves the energy equation of paper §V (Eq. 20),
// ∂T/∂t + u·∇T = ∇·(κ∇T), with Q1 finite elements on the corner-vertex
// grid of the Q2 mesh, stabilized by the SUPG method and stepped with
// backward Euler. The advecting velocity is the Q2 Stokes solution,
// interpolated to the Q1 quadrature points.
package thermal

import (
	"fmt"
	"math"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// Solver assembles and solves one backward-Euler step of the stabilized
// energy equation on the vertex grid.
type Solver struct {
	Prob  *fem.Problem
	Kappa float64 // thermal diffusivity κ

	// Dirichlet data on the vertex grid.
	Mask []bool
	Val  []float64

	// SUPG enables streamline-upwind stabilization (paper's choice for
	// advection-dominated transport). Disable only for ablation studies.
	SUPG bool

	// Params controls the linear solve (GMRES by default).
	Params krylov.Params
}

// New creates a thermal solver with empty boundary conditions.
func New(p *fem.Problem, kappa float64) *Solver {
	prm := krylov.DefaultParams()
	prm.RTol = 1e-10
	prm.MaxIt = 2000
	prm.Restart = 50
	return &Solver{
		Prob: p, Kappa: kappa, SUPG: true,
		Mask:   make([]bool, p.DA.NVertices()),
		Val:    make([]float64, p.DA.NVertices()),
		Params: prm,
	}
}

// SetFaceTemperature imposes T = v on all vertices of face f.
func (s *Solver) SetFaceTemperature(f mesh.Face, v float64) {
	da := s.Prob.DA
	var imin, imax, jmin, jmax, kmin, kmax = 0, da.Mx, 0, da.My, 0, da.Mz
	switch f {
	case mesh.XMin:
		imax = 0
	case mesh.XMax:
		imin = da.Mx
	case mesh.YMin:
		jmax = 0
	case mesh.YMax:
		jmin = da.My
	case mesh.ZMin:
		kmax = 0
	case mesh.ZMax:
		kmin = da.Mz
	}
	for k := kmin; k <= kmax; k++ {
		for j := jmin; j <= jmax; j++ {
			for i := imin; i <= imax; i++ {
				v2 := da.VertexID(i, j, k)
				s.Mask[v2] = true
				s.Val[v2] = v
			}
		}
	}
}

// gauss2 is the 2-point Gauss rule used for Q1 elements.
var gauss2 = [2]float64{-1 / math.Sqrt(3.0), 1 / math.Sqrt(3.0)}

// Step advances T (vertex grid) by one backward-Euler step of size dt
// with advecting Q2 velocity u (pass nil for pure diffusion). T is
// updated in place.
func (s *Solver) Step(T []float64, u la.Vec, dt float64) error {
	nv := s.Prob.DA.NVertices()
	if len(T) != nv {
		return fmt.Errorf("thermal: T length %d, want %d", len(T), nv)
	}
	a, rhs := s.Assemble(T, u, dt)
	// Jacobi-preconditioned GMRES (the system is nonsymmetric with SUPG).
	d := la.NewVec(nv)
	a.Diag(d)
	x := la.NewVec(nv)
	copy(x, T)
	res := krylov.GMRES(krylov.CSROp{A: a}, krylov.NewJacobi(d), rhs, x, s.Params)
	if !res.Converged {
		return fmt.Errorf("thermal: linear solve failed after %d its (rel %.2e)",
			res.Iterations, res.Residual/math.Max(res.Residual0, 1e-300))
	}
	copy(T, x)
	return nil
}

// Assemble builds the backward-Euler system matrix and right-hand side
// for the current state (exposed for tests and diagnostics).
func (s *Solver) Assemble(T []float64, u la.Vec, dt float64) (*la.CSR, la.Vec) {
	p := s.Prob
	da := p.DA
	nv := da.NVertices()
	b := la.NewBuilder(nv, nv)
	rhs := la.NewVec(nv)

	var vs [8]int32
	var q2n [27]float64
	var n1 [8]float64
	var g1 [8][3]float64
	var xe [81]float64
	var em []int32

	for e := 0; e < da.NElements(); e++ {
		da.ElemVertices(e, &vs)
		// Element nodal coordinates (Q2 gather reused for geometry).
		em = p.Emap[27*e : 27*e+27]
		for n := 0; n < 27; n++ {
			c := 3 * int(em[n])
			xe[3*n] = da.Coords[c]
			xe[3*n+1] = da.Coords[c+1]
			xe[3*n+2] = da.Coords[c+2]
		}
		// Element size for the SUPG parameter: cube-root of volume proxy
		// via corner distances (corner coordinates come from the gathered
		// element geometry, not the vertex grid — vertex ids ≠ node ids).
		l0 := 3 * fem.CornerLocal[0]
		hx := math.Abs(xe[3*fem.CornerLocal[1]] - xe[l0])
		hy := math.Abs(xe[3*fem.CornerLocal[2]+1] - xe[l0+1])
		hz := math.Abs(xe[3*fem.CornerLocal[4]+2] - xe[l0+2])
		he := math.Cbrt(math.Max(hx*hy*hz, 1e-300))

		var ae [8][8]float64
		for qk := 0; qk < 2; qk++ {
			for qj := 0; qj < 2; qj++ {
				for qi := 0; qi < 2; qi++ {
					xi, et, ze := gauss2[qi], gauss2[qj], gauss2[qk]
					fem.Q1EvalGrad(xi, et, ze, &n1, &g1)
					// Jacobian from the Q1 corner geometry.
					var jmat [9]float64
					for c := 0; c < 8; c++ {
						l := fem.CornerLocal[c]
						cx, cy, cz := xe[3*l], xe[3*l+1], xe[3*l+2]
						for d := 0; d < 3; d++ {
							jmat[d*3] += g1[c][d] * cx
							jmat[d*3+1] += g1[c][d] * cy
							jmat[d*3+2] += g1[c][d] * cz
						}
					}
					var inv [9]float64
					detJ := la.Invert3(&jmat, &inv)
					w := detJ // 2-pt Gauss weights are 1
					// Physical gradients of the Q1 basis.
					var gp [8][3]float64
					for c := 0; c < 8; c++ {
						for m := 0; m < 3; m++ {
							gp[c][m] = g1[c][0]*inv[m*3] + g1[c][1]*inv[m*3+1] + g1[c][2]*inv[m*3+2]
						}
					}
					// Velocity at the quadrature point from the Q2 field.
					var vx, vy, vz float64
					if u != nil {
						fem.Q2Eval(xi, et, ze, &q2n)
						for n := 0; n < 27; n++ {
							d := 3 * int(em[n])
							vx += q2n[n] * u[d]
							vy += q2n[n] * u[d+1]
							vz += q2n[n] * u[d+2]
						}
					}
					speed := math.Sqrt(vx*vx + vy*vy + vz*vz)

					// SUPG parameter τ = (h/2|v|)·min(Pe/3, 1).
					var tau float64
					if s.SUPG && speed > 1e-14 {
						pe := speed * he / (2 * s.Kappa)
						xiPe := 1.0
						if pe < 3 {
							xiPe = pe / 3
						}
						tau = he / (2 * speed) * xiPe
					}
					for i := 0; i < 8; i++ {
						// Test function + streamline perturbation.
						vdgI := vx*gp[i][0] + vy*gp[i][1] + vz*gp[i][2]
						wi := n1[i] + tau*vdgI
						for j := 0; j < 8; j++ {
							vdgJ := vx*gp[j][0] + vy*gp[j][1] + vz*gp[j][2]
							mass := wi * n1[j] / dt
							adv := wi * vdgJ
							diff := s.Kappa * (gp[i][0]*gp[j][0] + gp[i][1]*gp[j][1] + gp[i][2]*gp[j][2])
							ae[i][j] += w * (mass + adv + diff)
						}
					}
					// RHS: (w_i, T^n/dt) with T^n interpolated. Entries at
					// Dirichlet vertices are overwritten after assembly.
					var tn float64
					for j := 0; j < 8; j++ {
						tn += n1[j] * T[vs[j]]
					}
					for i := 0; i < 8; i++ {
						vdgI := vx*gp[i][0] + vy*gp[i][1] + vz*gp[i][2]
						wi := n1[i] + tau*vdgI
						rhs[vs[i]] += w * wi * tn / dt
					}
				}
			}
		}
		// Scatter with Dirichlet elimination.
		for i := 0; i < 8; i++ {
			gi := int(vs[i])
			if s.Mask[gi] {
				continue
			}
			for j := 0; j < 8; j++ {
				gj := int(vs[j])
				if s.Mask[gj] {
					rhs[gi] -= ae[i][j] * s.Val[gj]
					continue
				}
				b.Add(gi, gj, ae[i][j])
			}
		}
	}
	for v := 0; v < nv; v++ {
		if s.Mask[v] {
			b.Set(v, v, 1)
			rhs[v] = s.Val[v]
		}
	}
	return b.ToCSR(), rhs
}

// TemperatureAt interpolates the cursor's vertex-grid temperature field
// at reference position (xi,et,ze) of the element it holds.
func TemperatureAt(c *fem.ElemCursor, xi, et, ze float64) float64 {
	var n1 [8]float64
	fem.Q1Eval(xi, et, ze, &n1)
	var s float64
	for i, t := range c.Te {
		s += n1[i] * t
	}
	return s
}
