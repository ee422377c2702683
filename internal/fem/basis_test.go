package fem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQ2PartitionOfUnity(t *testing.T) {
	// Σ_i N_i = 1 and Σ_i ∇N_i = 0 at every quadrature point.
	for q := 0; q < NQP; q++ {
		var s float64
		var g [3]float64
		for n := 0; n < NodesPerEl; n++ {
			s += N27[q][n]
			for d := 0; d < 3; d++ {
				g[d] += G27[q][n][d]
			}
		}
		if math.Abs(s-1) > 1e-14 {
			t.Fatalf("q=%d: ΣN = %v", q, s)
		}
		for d := 0; d < 3; d++ {
			if math.Abs(g[d]) > 1e-13 {
				t.Fatalf("q=%d: Σ∇N[%d] = %v", q, d, g[d])
			}
		}
	}
}

// Property: partition of unity at arbitrary reference points for Q2 and Q1.
func TestPartitionOfUnityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		xi := math.Mod(math.Abs(a), 1)*2 - 1
		eta := math.Mod(math.Abs(b), 1)*2 - 1
		zeta := math.Mod(math.Abs(c), 1)*2 - 1
		if math.IsNaN(xi) || math.IsNaN(eta) || math.IsNaN(zeta) {
			return true
		}
		var n2 [27]float64
		Q2Eval(xi, eta, zeta, &n2)
		var s2 float64
		for _, v := range n2 {
			s2 += v
		}
		var n1 [8]float64
		Q1Eval(xi, eta, zeta, &n1)
		var s1 float64
		for _, v := range n1 {
			s1 += v
		}
		return math.Abs(s2-1) < 1e-12 && math.Abs(s1-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQ2KroneckerDelta(t *testing.T) {
	// N_i at node j equals δ_ij; nodes at ξ ∈ {-1,0,1}³.
	pos := [3]float64{-1, 0, 1}
	for nk := 0; nk < 3; nk++ {
		for nj := 0; nj < 3; nj++ {
			for ni := 0; ni < 3; ni++ {
				j := (nk*3+nj)*3 + ni
				var n [27]float64
				Q2Eval(pos[ni], pos[nj], pos[nk], &n)
				for i := 0; i < 27; i++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(n[i]-want) > 1e-14 {
						t.Fatalf("N_%d at node %d = %v, want %v", i, j, n[i], want)
					}
				}
			}
		}
	}
}

func TestQuadratureExactness(t *testing.T) {
	// The 3-point Gauss rule integrates 1-D polynomials up to degree 5
	// exactly; check ∫ξ⁴ over the 27-point rule (per-direction).
	var s float64
	for q := 0; q < NQP; q++ {
		qi := q % 3
		xi := [3]float64{-math.Sqrt(3.0 / 5.0), 0, math.Sqrt(3.0 / 5.0)}[qi]
		s += W3[q] * xi * xi * xi * xi
	}
	// ∫_{-1}^{1}ξ⁴dξ · (∫1)² = (2/5)·4 = 1.6
	if math.Abs(s-1.6) > 1e-13 {
		t.Fatalf("∫ξ⁴ = %v, want 1.6", s)
	}
	// Total weight = volume of reference cube = 8.
	var w float64
	for q := 0; q < NQP; q++ {
		w += W3[q]
	}
	if math.Abs(w-8) > 1e-13 {
		t.Fatalf("Σw = %v, want 8", w)
	}
}

func TestQ2GradReproducesLinear(t *testing.T) {
	// The gradient of the interpolant of a linear function is exact.
	rng := rand.New(rand.NewSource(2))
	a, b, c, d := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	pos := [3]float64{-1, 0, 1}
	var vals [27]float64
	for nk := 0; nk < 3; nk++ {
		for nj := 0; nj < 3; nj++ {
			for ni := 0; ni < 3; ni++ {
				vals[(nk*3+nj)*3+ni] = a + b*pos[ni] + c*pos[nj] + d*pos[nk]
			}
		}
	}
	var n [27]float64
	var g [27][3]float64
	Q2Eval(0.3, -0.7, 0.1, &n)
	Q2Grad(0.3, -0.7, 0.1, &g)
	var grad [3]float64
	var val float64
	for i := 0; i < 27; i++ {
		val += n[i] * vals[i]
		for dd := 0; dd < 3; dd++ {
			grad[dd] += g[i][dd] * vals[i]
		}
	}
	wantVal := a + b*0.3 + c*-0.7 + d*0.1
	if math.Abs(val-wantVal) > 1e-13 {
		t.Fatalf("interp = %v, want %v", val, wantVal)
	}
	for dd, want := range [3]float64{b, c, d} {
		if math.Abs(grad[dd]-want) > 1e-13 {
			t.Fatalf("grad[%d] = %v, want %v", dd, grad[dd], want)
		}
	}
}

// TestQ2BasisTabulatedBitwise: Q2Eval and Q2Grad, which take the left
// factor of every triple product from a 9-entry table, return the bits of
// the triple products written out — the form both had before the tables —
// at random points, the nodes ±1 and 0, the Newton clamp ±3, and
// denormal coordinates (whose products underflow).
func TestQ2BasisTabulatedBitwise(t *testing.T) {
	shape := func(xi float64) (n, d [3]float64) {
		return [3]float64{0.5 * xi * (xi - 1), 1 - xi*xi, 0.5 * xi * (xi + 1)}, [3]float64{xi - 0.5, -2 * xi, xi + 0.5}
	}
	triple := func(xi, eta, zeta float64) (n [27]float64, g [27][3]float64) {
		nx, dx := shape(xi)
		ny, dy := shape(eta)
		nz, dz := shape(zeta)
		for k := 0; k < 3; k++ {
			for j := 0; j < 3; j++ {
				for i := 0; i < 3; i++ {
					l := (k*3+j)*3 + i
					n[l] = nx[i] * ny[j] * nz[k]
					g[l] = [3]float64{dx[i] * ny[j] * nz[k], nx[i] * dy[j] * nz[k], nx[i] * ny[j] * dz[k]}
				}
			}
		}
		return
	}
	special := []float64{-1, 1, 0, math.Copysign(0, -1), -3, 3, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310}
	rng := rand.New(rand.NewSource(25))
	coord := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return 8*rng.Float64() - 4
	}
	for trial := 0; trial < 20000; trial++ {
		xi, eta, zeta := coord(), coord(), coord()
		wantN, wantG := triple(xi, eta, zeta)
		var n [27]float64
		var g [27][3]float64
		Q2Eval(xi, eta, zeta, &n)
		Q2Grad(xi, eta, zeta, &g)
		for l := 0; l < 27; l++ {
			if math.Float64bits(n[l]) != math.Float64bits(wantN[l]) {
				t.Fatalf("ξ = (%g, %g, %g): N_%d = %v, triple product %v", xi, eta, zeta, l, n[l], wantN[l])
			}
			for d := 0; d < 3; d++ {
				if math.Float64bits(g[l][d]) != math.Float64bits(wantG[l][d]) {
					t.Fatalf("ξ = (%g, %g, %g): ∂N_%d/∂ξ_%d = %v, triple product %v", xi, eta, zeta, l, d, g[l][d], wantG[l][d])
				}
			}
		}
	}
}

func TestQ1GradConstant(t *testing.T) {
	var n [8]float64
	var g [8][3]float64
	Q1EvalGrad(0.2, 0.4, -0.9, &n, &g)
	var sum [3]float64
	for i := 0; i < 8; i++ {
		for d := 0; d < 3; d++ {
			sum[d] += g[i][d]
		}
	}
	for d := 0; d < 3; d++ {
		if math.Abs(sum[d]) > 1e-14 {
			t.Fatalf("Σ∇Q1[%d] = %v", d, sum[d])
		}
	}
}

func TestCornerLocalIndices(t *testing.T) {
	// Corner 0 is local node 0; corner 7 is local node 26.
	if CornerLocal[0] != 0 || CornerLocal[7] != 26 {
		t.Fatalf("CornerLocal = %v", CornerLocal)
	}
	// All corners have even sub-indices.
	for _, l := range CornerLocal {
		i := l % 3
		j := (l / 3) % 3
		k := l / 9
		if i%2 != 0 || j%2 != 0 || k%2 != 0 {
			t.Fatalf("corner local %d has odd lattice position", l)
		}
	}
}

func TestN27Q1InterpolatesTrilinear(t *testing.T) {
	// Interpolating a trilinear vertex field to quadrature points must
	// agree with direct evaluation.
	f := func(x, y, z float64) float64 { return 2 + x - 3*y + 0.5*z + x*y*z }
	pos := [2]float64{-1, 1}
	var vf [8]float64
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				vf[(k*2+j)*2+i] = f(pos[i], pos[j], pos[k])
			}
		}
	}
	g := math.Sqrt(3.0 / 5.0)
	gp := [3]float64{-g, 0, g}
	for q := 0; q < NQP; q++ {
		qi, qj, qk := q%3, (q/3)%3, q/9
		var s float64
		for c := 0; c < 8; c++ {
			s += N27Q1[q][c] * vf[c]
		}
		x, y, z := gp[qi], gp[qj], gp[qk]
		want := f(x, y, z)
		if math.Abs(s-want) > 1e-13 {
			t.Fatalf("q=%d: interp %v, want %v", q, s, want)
		}
	}
}
