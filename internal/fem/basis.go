// Package fem implements the mixed Q2–P1(disc) finite element
// discretization of the heterogeneous Stokes problem (paper §II-B) and the
// four implementations of viscous-block operator application compared in
// Table I of the paper:
//
//   - Assembled: classical CSR SpMV on the assembled matrix;
//   - MF:        reference (non-tensor) matrix-free element kernel;
//   - Tensor:    matrix-free kernel exploiting the tensor-product structure
//     of the Q2 basis (the paper's headline contribution, §III-D);
//   - TensorC:   tensor kernel with the combined metric+coefficient tensor
//     precomputed and stored at quadrature points.
//
// The velocity space is Q2 (27 nodes per hexahedral element, 3 components);
// the pressure space is P1 discontinuous with the basis defined in physical
// (x,y,z) coordinates, which preserves optimal accuracy on deformed meshes
// and local (element-wise) mass conservation (paper §II-B).
package fem

import "math"

// NQP is the number of quadrature points per element (3×3×3 Gauss).
const NQP = 27

// NodesPerEl is the number of Q2 velocity nodes per element.
const NodesPerEl = 27

// gauss3 holds the 3-point Gauss–Legendre rule on [-1,1].
var gauss3 = [3]float64{-math.Sqrt2 * 0, 0, 0} // replaced in init
var gaussW = [3]float64{5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0}

// B1 and D1 are the one-dimensional Q2 basis evaluation and derivative
// matrices at the Gauss points: B1[q][i] = N_i(g_q), D1[q][i] = N'_i(g_q).
// These are the B̂ and D̂ of paper §III-D; the 3-D reference gradient
// operator factors as D̂⊗B̂⊗B̂ etc.
var B1, D1 [3][3]float64

// W3 holds the 27 tensor-product quadrature weights, ordered with the
// x-index fastest: q = (qk*3+qj)*3+qi.
var W3 [NQP]float64

// N27 is the full Q2 basis tabulation: N27[q][n] = N_n(ξ_q).
var N27 [NQP][NodesPerEl]float64

// G27 is the full Q2 reference-gradient tabulation:
// G27[q][n][d] = ∂N_n/∂ξ_d (ξ_q). This is the explicit 81×27 reference
// derivative matrix D̂ξ of the paper's non-tensor matrix-free kernel.
var G27 [NQP][NodesPerEl][3]float64

// q2Shape1D evaluates the three 1-D quadratic basis functions (nodes at
// ξ = -1, 0, +1) and their derivatives at ξ.
func q2Shape1D(xi float64) (n, d [3]float64) {
	n[0] = 0.5 * xi * (xi - 1)
	n[1] = 1 - xi*xi
	n[2] = 0.5 * xi * (xi + 1)
	d[0] = xi - 0.5
	d[1] = -2 * xi
	d[2] = xi + 0.5
	return
}

// q1Shape1D evaluates the two 1-D linear basis functions (nodes at ξ = ±1)
// and their derivatives at ξ.
func q1Shape1D(xi float64) (n, d [2]float64) {
	n[0] = 0.5 * (1 - xi)
	n[1] = 0.5 * (1 + xi)
	d[0] = -0.5
	d[1] = 0.5
	return
}

func init() {
	g := math.Sqrt(3.0 / 5.0)
	gauss3 = [3]float64{-g, 0, g}
	for q := 0; q < 3; q++ {
		n, d := q2Shape1D(gauss3[q])
		B1[q] = n
		D1[q] = d
	}
	for qk := 0; qk < 3; qk++ {
		for qj := 0; qj < 3; qj++ {
			for qi := 0; qi < 3; qi++ {
				q := (qk*3+qj)*3 + qi
				W3[q] = gaussW[qi] * gaussW[qj] * gaussW[qk]
				for nk := 0; nk < 3; nk++ {
					for nj := 0; nj < 3; nj++ {
						for ni := 0; ni < 3; ni++ {
							n := (nk*3+nj)*3 + ni
							N27[q][n] = B1[qi][ni] * B1[qj][nj] * B1[qk][nk]
							G27[q][n][0] = D1[qi][ni] * B1[qj][nj] * B1[qk][nk]
							G27[q][n][1] = B1[qi][ni] * D1[qj][nj] * B1[qk][nk]
							G27[q][n][2] = B1[qi][ni] * B1[qj][nj] * D1[qk][nk]
						}
					}
				}
			}
		}
	}
}

// Q2Eval evaluates the 27 Q2 basis functions at an arbitrary reference
// point (xi,eta,zeta) ∈ [-1,1]³. Used for material-point interpolation.
func Q2Eval(xi, eta, zeta float64, n *[NodesPerEl]float64) {
	nx, _ := q2Shape1D(xi)
	ny, _ := q2Shape1D(eta)
	nz, _ := q2Shape1D(zeta)
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				n[(k*3+j)*3+i] = nx[i] * ny[j] * nz[k]
			}
		}
	}
}

// Q2EvalGrad evaluates the Q2 basis and its reference gradient at an
// arbitrary reference point.
func Q2EvalGrad(xi, eta, zeta float64, n *[NodesPerEl]float64, g *[NodesPerEl][3]float64) {
	nx, dx := q2Shape1D(xi)
	ny, dy := q2Shape1D(eta)
	nz, dz := q2Shape1D(zeta)
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				l := (k*3+j)*3 + i
				n[l] = nx[i] * ny[j] * nz[k]
				g[l][0] = dx[i] * ny[j] * nz[k]
				g[l][1] = nx[i] * dy[j] * nz[k]
				g[l][2] = nx[i] * ny[j] * dz[k]
			}
		}
	}
}

// Q1Eval evaluates the 8 trilinear (Q1) basis functions at a reference
// point, ordered with i fastest: l = (k*2+j)*2+i. The Q1 space lives on
// the corner vertices of the Q2 element and is used for material-point
// projection (paper Eq. 12–13) and for the embedded-Q1 multigrid
// interpolation (paper §III-C).
func Q1Eval(xi, eta, zeta float64, n *[8]float64) {
	nx, _ := q1Shape1D(xi)
	ny, _ := q1Shape1D(eta)
	nz, _ := q1Shape1D(zeta)
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				n[(k*2+j)*2+i] = nx[i] * ny[j] * nz[k]
			}
		}
	}
}

// Q1EvalGrad evaluates the Q1 basis and reference gradients.
func Q1EvalGrad(xi, eta, zeta float64, n *[8]float64, g *[8][3]float64) {
	nx, dx := q1Shape1D(xi)
	ny, dy := q1Shape1D(eta)
	nz, dz := q1Shape1D(zeta)
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				l := (k*2+j)*2 + i
				n[l] = nx[i] * ny[j] * nz[k]
				g[l][0] = dx[i] * ny[j] * nz[k]
				g[l][1] = nx[i] * dy[j] * nz[k]
				g[l][2] = nx[i] * ny[j] * dz[k]
			}
		}
	}
}

// CornerLocal maps the 8 Q1 corner indices to the corresponding local Q2
// node indices (corners of the 3×3×3 node block).
var CornerLocal = [8]int{
	(0*3+0)*3 + 0, (0*3+0)*3 + 2, (0*3+2)*3 + 0, (0*3+2)*3 + 2,
	(2*3+0)*3 + 0, (2*3+0)*3 + 2, (2*3+2)*3 + 0, (2*3+2)*3 + 2,
}

// QPRef holds the reference coordinates of the 27 quadrature points.
var QPRef [NQP][3]float64

// N27Q1 tabulates the Q1 corner basis at the 27 quadrature points:
// N27Q1[q][c] = Q1_c(ξ_q). Used to interpolate projected nodal coefficient
// fields (viscosity, density) to quadrature points (paper Eq. 13).
var N27Q1 [NQP][8]float64

func init() {
	for qk := 0; qk < 3; qk++ {
		for qj := 0; qj < 3; qj++ {
			for qi := 0; qi < 3; qi++ {
				q := (qk*3+qj)*3 + qi
				QPRef[q] = [3]float64{gauss3[qi], gauss3[qj], gauss3[qk]}
				var n [8]float64
				Q1Eval(gauss3[qi], gauss3[qj], gauss3[qk], &n)
				N27Q1[q] = n
			}
		}
	}
}
