package fem

// Tensor-product contraction kernels (paper §III-D): the 81×27 reference
// derivative matrix D̂ξ factors into 1-D pieces D̂⊗B̂⊗B̂, B̂⊗D̂⊗B̂ and
// B̂⊗B̂⊗D̂, where B̂ and D̂ are the 3×3 one-dimensional basis evaluation and
// derivative matrices. Applying these as a sequence of 1-D contractions
// costs ~3× fewer flops than the dense 81×27 application, and — because no
// per-element 17 kB gradient matrix is formed — keeps the working set
// small enough to stay in L1 cache.
//
// Fields are stored as flat [81]T arrays holding 27 lattice points
// × 3 interleaved components with the x point index fastest:
// idx = ((k*3+j)*3+i)*3 + c.
//
// Each direction's contraction is specialized to its memory layout
// instead of going through a shared stride/base-table kernel: the offsets
// below are affine in small constant-bound loop variables, so the
// compiler proves every access in range and the inner loops run without
// bounds checks or index-table loads.
//
// The kernels are generic in the scalar: float64 for the Tensor, Newton
// and stored-coefficient resident operators, float32 for the resident
// kernel's single-precision variant, which only the kernel study builds.
// One body serves both, so the float64 resident kernel and the Tensor
// kernel contract bit-for-bit alike — the property the blocked-smoother
// equivalence tests rely on.
//
// Production float64 kernels do not call these bodies directly but
// tensorGrads64, tensorScatterWrite64 and residentElement64, which on an
// amd64 host with AVX2 run the assembly encoding of the same arithmetic
// (tensor_amd64.s: same operations, same association, no fused
// multiply-add, so the same bits). There the bodies below are the oracle
// the assembly is tested against and the float32 kernel; everywhere else
// they are the kernel.

// Float is the scalar constraint of the generic element kernels.
type Float interface {
	~float32 | ~float64
}

// tensorTables holds the 1-D basis/derivative matrices and their
// transposes at the kernel's working precision. The float32 copy is
// converted once at init from the float64 tabulation.
type tensorTables[T Float] struct {
	b1, d1, b1t, d1t [3][3]T
}

var (
	tables64 tensorTables[float64]
	tables32 tensorTables[float32]
)

func init() {
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			tables64.b1[a][b] = B1[a][b]
			tables64.d1[a][b] = D1[a][b]
			tables64.b1t[a][b] = B1[b][a]
			tables64.d1t[a][b] = D1[b][a]
			tables32.b1[a][b] = float32(B1[a][b])
			tables32.d1[a][b] = float32(D1[a][b])
			tables32.b1t[a][b] = float32(B1[b][a])
			tables32.d1t[a][b] = float32(D1[b][a])
		}
	}
}

// cX contracts the x lattice direction (stride 3): for each of the nine
// (k,j) lines the nine floats {i×c} are contiguous, so the kernel streams
// aligned 9-blocks.
func cX[T Float](m *[3][3]T, in, out *[81]T) {
	m00, m01, m02 := m[0][0], m[0][1], m[0][2]
	m10, m11, m12 := m[1][0], m[1][1], m[1][2]
	m20, m21, m22 := m[2][0], m[2][1], m[2][2]
	for g := 0; g < 9; g++ {
		s := (*[9]T)(in[9*g : 9*g+9])
		d := (*[9]T)(out[9*g : 9*g+9])
		for c := 0; c < 3; c++ {
			i0, i1, i2 := s[c], s[c+3], s[c+6]
			d[c] = m00*i0 + m01*i1 + m02*i2
			d[c+3] = m10*i0 + m11*i1 + m12*i2
			d[c+6] = m20*i0 + m21*i1 + m22*i2
		}
	}
}

// cY contracts the y lattice direction (stride 9): within each of the
// three k planes (27 contiguous floats) the contracted triple sits at
// offsets r, r+9, r+18.
func cY[T Float](m *[3][3]T, in, out *[81]T) {
	m00, m01, m02 := m[0][0], m[0][1], m[0][2]
	m10, m11, m12 := m[1][0], m[1][1], m[1][2]
	m20, m21, m22 := m[2][0], m[2][1], m[2][2]
	for k := 0; k < 3; k++ {
		s := (*[27]T)(in[27*k : 27*k+27])
		d := (*[27]T)(out[27*k : 27*k+27])
		for r := 0; r < 9; r++ {
			i0, i1, i2 := s[r], s[r+9], s[r+18]
			d[r] = m00*i0 + m01*i1 + m02*i2
			d[r+9] = m10*i0 + m11*i1 + m12*i2
			d[r+18] = m20*i0 + m21*i1 + m22*i2
		}
	}
}

// cZ contracts the z lattice direction (stride 27): the contracted triple
// sits at offsets r, r+27, r+54 over the whole array.
func cZ[T Float](m *[3][3]T, in, out *[81]T) {
	m00, m01, m02 := m[0][0], m[0][1], m[0][2]
	m10, m11, m12 := m[1][0], m[1][1], m[1][2]
	m20, m21, m22 := m[2][0], m[2][1], m[2][2]
	for r := 0; r < 27; r++ {
		i0, i1, i2 := in[r], in[r+27], in[r+54]
		out[r] = m00*i0 + m01*i1 + m02*i2
		out[r+27] = m10*i0 + m11*i1 + m12*i2
		out[r+54] = m20*i0 + m21*i1 + m22*i2
	}
}

// kernScratchG is the reusable per-worker arena handed to the element
// kernels: the intermediate [81]T fields of the tensor contractions.
// Declaring these as kernel locals costs a ~10 kB duffzero per element;
// the arena is zeroed once per worker chunk and every kernel fully
// overwrites the fields it reads, so elements stream through with no
// zero-init churn.
//
// ue/ye stage the element state and output at working precision (resident
// kernel, T = float32 only), ug holds the state's reference gradients, h
// the quadrature cotangents, t0–t5 are contraction temporaries clobbered
// by tensorGrads (t0–t4) and tensorScatterWrite (t0–t5).
type kernScratchG[T Float] struct {
	ue, ye                 [81]T
	ug0, ug1, ug2          [81]T
	h0, h1, h2             [81]T
	t0, t1, t2, t3, t4, t5 [81]T
}

// kernScratch is the float64 arena of the slab kernels, which also need
// the coordinate reference gradients xg. Those stay outside kernScratchG
// so that the resident kernel's arena keeps its layout (EXPERIMENTS.md,
// "One path": with them inside, step_s on the 16³ sinker read 3.7 % worse,
// unresolved against its spread; the layout that moves nothing was kept).
type kernScratch struct {
	kernScratchG[float64]
	xg0, xg1, xg2 [81]float64
}

// tensorGrads computes the three reference-direction gradients of the
// 3-component nodal field f at the 27 quadrature points:
// g_d[q*3+a] = ∂f_a/∂ξ_d(ξ_q). Eight 1-D contractions replace the dense
// 81×27 matrix application. ks.t0–t4 are clobbered; f and the outputs
// must not alias them.
func tensorGrads[T Float](f, g0, g1, g2 *[81]T, tab *tensorTables[T], ks *kernScratchG[T]) {
	tB, tD := &ks.t0, &ks.t1
	tBB, tDB, tBD := &ks.t2, &ks.t3, &ks.t4
	cX(&tab.b1, f, tB)
	cX(&tab.d1, f, tD)
	cY(&tab.b1, tB, tBB)
	cY(&tab.b1, tD, tDB)
	cY(&tab.d1, tB, tBD)
	cZ(&tab.b1, tDB, g0)
	cZ(&tab.b1, tBD, g1)
	cZ(&tab.d1, tBB, g2)
}

// tensorScatterWrite computes the adjoint of tensorGrads, overwriting ye:
// ye = Σ_d (D̂ξ_d)ᵀ h_d, where h_d are quadrature-point cotangent fields.
// The element kernels' ye scratch is reused across elements, so the full
// overwrite needs no per-element zero-init. ks.t0–t5 are clobbered; the h
// inputs must not alias them (they normally live in ks.h0–h2).
func tensorScatterWrite[T Float](h0, h1, h2, ye *[81]T, tab *tensorTables[T], ks *kernScratchG[T]) {
	s0, s1, s2 := &ks.t0, &ks.t1, &ks.t2
	t0, t12, tmp := &ks.t3, &ks.t4, &ks.t5
	cZ(&tab.b1t, h0, s0)
	cZ(&tab.b1t, h1, s1)
	cZ(&tab.d1t, h2, s2)
	cY(&tab.b1t, s0, t0)
	cY(&tab.d1t, s1, t12)
	cY(&tab.b1t, s2, tmp)
	for i := range t12 {
		t12[i] += tmp[i]
	}
	cX(&tab.d1t, t0, ye)
	cX(&tab.b1t, t12, tmp)
	for i := range tmp {
		ye[i] += tmp[i]
	}
}

// residentElement applies the stored-coefficient tensor kernel of one
// element at working precision T: the gathered float64 element state is
// rounded once into the staging block, all contractions and the
// ~60-flop/qp coefficient multiply run in T, and the result is widened
// back to float64 for the owner-computes scatter (global vectors stay
// double on every path). coef is the element's 15·NQP coefficient block.
func residentElement[T Float](coef []T, ue *[81]float64, ye *[81]float64, tab *tensorTables[T], ks *kernScratchG[T]) {
	// When T is float64 the staging round-trips are identity copies; read
	// and write the caller's blocks directly instead.
	uT, yT := &ks.ue, &ks.ye
	if p, ok := any(ue).(*[81]T); ok {
		uT = p
	} else {
		for i := range ks.ue {
			ks.ue[i] = T(ue[i])
		}
	}
	direct := false
	if p, ok := any(ye).(*[81]T); ok {
		yT, direct = p, true
	}
	ug0, ug1, ug2 := &ks.ug0, &ks.ug1, &ks.ug2
	tensorGrads(uT, ug0, ug1, ug2, tab, ks)
	h0, h1, h2 := &ks.h0, &ks.h1, &ks.h2
	// h[a][d] = Σ_e sM[d][e]·g[a][e] + Σ_m Ks[d][m]·tt[m],
	// tt[m] = Σ_e g[m][e]·Ks[e][a]  (a-dependent). Fully
	// scalarized: every value's expression tree matches the array form the
	// loop nest had, so the results are bit-identical — the registers just
	// stay live across the whole quadrature point.
	for q := 0; q < NQP; q++ {
		c := coef[15*q : 15*q+15 : 15*q+15]
		sm00, sm01, sm02, sm11, sm12, sm22 := c[0], c[1], c[2], c[3], c[4], c[5]
		k00, k01, k02 := c[6], c[7], c[8]
		k10, k11, k12 := c[9], c[10], c[11]
		k20, k21, k22 := c[12], c[13], c[14]
		g00, g01, g02 := ug0[q*3], ug1[q*3], ug2[q*3]
		g10, g11, g12 := ug0[q*3+1], ug1[q*3+1], ug2[q*3+1]
		g20, g21, g22 := ug0[q*3+2], ug1[q*3+2], ug2[q*3+2]

		// a = 0
		h00 := sm00*g00 + sm01*g01 + sm02*g02
		h01 := sm01*g00 + sm11*g01 + sm12*g02
		h02 := sm02*g00 + sm12*g01 + sm22*g02
		t0 := g00*k00 + g01*k10 + g02*k20
		t1 := g10*k00 + g11*k10 + g12*k20
		t2 := g20*k00 + g21*k10 + g22*k20
		h00 += k00*t0 + k01*t1 + k02*t2
		h01 += k10*t0 + k11*t1 + k12*t2
		h02 += k20*t0 + k21*t1 + k22*t2

		// a = 1
		h10 := sm00*g10 + sm01*g11 + sm02*g12
		h11 := sm01*g10 + sm11*g11 + sm12*g12
		h12 := sm02*g10 + sm12*g11 + sm22*g12
		t0 = g00*k01 + g01*k11 + g02*k21
		t1 = g10*k01 + g11*k11 + g12*k21
		t2 = g20*k01 + g21*k11 + g22*k21
		h10 += k00*t0 + k01*t1 + k02*t2
		h11 += k10*t0 + k11*t1 + k12*t2
		h12 += k20*t0 + k21*t1 + k22*t2

		// a = 2
		h20 := sm00*g20 + sm01*g21 + sm02*g22
		h21 := sm01*g20 + sm11*g21 + sm12*g22
		h22 := sm02*g20 + sm12*g21 + sm22*g22
		t0 = g00*k02 + g01*k12 + g02*k22
		t1 = g10*k02 + g11*k12 + g12*k22
		t2 = g20*k02 + g21*k12 + g22*k22
		h20 += k00*t0 + k01*t1 + k02*t2
		h21 += k10*t0 + k11*t1 + k12*t2
		h22 += k20*t0 + k21*t1 + k22*t2

		h0[q*3], h0[q*3+1], h0[q*3+2] = h00, h10, h20
		h1[q*3], h1[q*3+1], h1[q*3+2] = h01, h11, h21
		h2[q*3], h2[q*3+1], h2[q*3+2] = h02, h12, h22
	}
	tensorScatterWrite(h0, h1, h2, yT, tab, ks)
	if !direct {
		for i := range ye {
			ye[i] = float64(yT[i])
		}
	}
}
