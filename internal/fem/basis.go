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

// q2Vals and q2Ders evaluate the three 1-D quadratic basis functions
// (nodes at ξ = -1, 0, +1) and their derivatives at ξ. They return
// scalars: the per-point evaluators below run millions of times a step,
// and a [3]float64 result would be copied through the stack at every call.
func q2Vals(xi float64) (n0, n1, n2 float64) {
	return 0.5 * xi * (xi - 1), 1 - xi*xi, 0.5 * xi * (xi + 1)
}

func q2Ders(xi float64) (d0, d1, d2 float64) { return xi - 0.5, -2 * xi, xi + 0.5 }

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
		B1[q][0], B1[q][1], B1[q][2] = q2Vals(gauss3[q])
		D1[q][0], D1[q][1], D1[q][2] = q2Ders(gauss3[q])
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
// N_(k*3+j)*3+i is the triple product x_i·y_j·z_k, which Go evaluates left
// to right, so taking x_i·y_j from a 9-entry table changes no bit
// (TestQ2BasisTabulatedBitwise).
func Q2Eval(xi, eta, zeta float64, n *[NodesPerEl]float64) {
	x0, x1, x2 := q2Vals(xi)
	y0, y1, y2 := q2Vals(eta)
	z0, z1, z2 := q2Vals(zeta)
	xy := [9]float64{x0 * y0, x1 * y0, x2 * y0, x0 * y1, x1 * y1, x2 * y1, x0 * y2, x1 * y2, x2 * y2}
	for l, v := range xy {
		n[l], n[9+l], n[18+l] = v*z0, v*z1, v*z2
	}
}

// Q2Grad evaluates the reference gradient of the 27 Q2 basis functions at
// an arbitrary reference point: the triple products dx_i·y_j·z_k,
// x_i·dy_j·z_k and x_i·y_j·dz_k, their left factors from the tables dx·y,
// x·dy and x·y as in Q2Eval.
func Q2Grad(xi, eta, zeta float64, g *[NodesPerEl][3]float64) {
	x0, x1, x2 := q2Vals(xi)
	y0, y1, y2 := q2Vals(eta)
	z0, z1, z2 := q2Vals(zeta)
	dx0, dx1, dx2 := q2Ders(xi)
	dy0, dy1, dy2 := q2Ders(eta)
	dz0, dz1, dz2 := q2Ders(zeta)
	xy := [9]float64{x0 * y0, x1 * y0, x2 * y0, x0 * y1, x1 * y1, x2 * y1, x0 * y2, x1 * y2, x2 * y2}
	dxy := [9]float64{dx0 * y0, dx1 * y0, dx2 * y0, dx0 * y1, dx1 * y1, dx2 * y1, dx0 * y2, dx1 * y2, dx2 * y2}
	xdy := [9]float64{x0 * dy0, x1 * dy0, x2 * dy0, x0 * dy1, x1 * dy1, x2 * dy1, x0 * dy2, x1 * dy2, x2 * dy2}
	for l := range xy {
		g[l] = [3]float64{dxy[l] * z0, xdy[l] * z0, xy[l] * dz0}
		g[9+l] = [3]float64{dxy[l] * z1, xdy[l] * z1, xy[l] * dz1}
		g[18+l] = [3]float64{dxy[l] * z2, xdy[l] * z2, xy[l] * dz2}
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
