// AVX2 encoding of the float64 element kernel (DESIGN.md, "One kernel, two
// encodings"). Every vector instruction is the scalar operation of the Go
// body in tensor.go lane-wise: VMULPD/VADDPD in the association the Go
// expressions have, never a fused multiply-add, so the two encodings agree
// to the bit and the Go bodies stay the test oracle and the portable
// fallback. No access leaves the [81] (or [15·27]) block it belongs to;
// where a 3-wide row would, it goes through VMASKMOVPD with lanes3.
//
// The bodies (cX<> … scatter<>) pass arguments in registers and are
// reached only from the Go-callable routines at the end of the file, which
// clear the upper YMM halves before they return to Go.

#include "textflag.h"

// Field offsets of tensorTables[float64] and kernScratchG[float64];
// tensor_amd64.go fails to compile when they move.
#define TAB_B1  0
#define TAB_D1  72
#define TAB_B1T 144
#define TAB_D1T 216
#define KS_UG0 1296
#define KS_UG1 1944
#define KS_UG2 2592
#define KS_H0  3240
#define KS_H1  3888
#define KS_H2  4536
#define KS_T0  5184
#define KS_T1  5832
#define KS_T2  6480
#define KS_T3  7128
#define KS_T4  7776
#define KS_T5  8424

// Lanes 0-2 on, lane 3 off: the mask of a 3-wide row at the end of a block.
DATA lanes3<>+0(SB)/8, $-1
DATA lanes3<>+8(SB)/8, $-1
DATA lanes3<>+16(SB)/8, $-1
DATA lanes3<>+24(SB)/8, $0
GLOBL lanes3<>(SB), RODATA|NOPTR, $32

// ---------------------------------------------------------------------------
// The three 1-D contractions. DX = m (*[3][3]float64), SI = in, DI = out
// (*[81]float64, not aliased). Clobbers Y0-Y15.
//
// A line is four adjacent triples: inputs at float64 index o, o+s, o+2s
// (lanes o…o+3 of each) give outputs at the same three places,
//   out[o+a·s] = (m[a][0]·in[o] + m[a][1]·in[o+s]) + m[a][2]·in[o+2s].
// ---------------------------------------------------------------------------

#define LOADM \
	VBROADCASTSD 0(DX), Y0;  \
	VBROADCASTSD 8(DX), Y1;  \
	VBROADCASTSD 16(DX), Y2; \
	VBROADCASTSD 24(DX), Y3; \
	VBROADCASTSD 32(DX), Y4; \
	VBROADCASTSD 40(DX), Y5; \
	VBROADCASTSD 48(DX), Y6; \
	VBROADCASTSD 56(DX), Y7; \
	VBROADCASTSD 64(DX), Y8

// acc = (ma·Y9 + mb·Y10) + mc·Y11
#define ROW(ma, mb, mc, acc) \
	VMULPD Y9, ma, acc;   \
	VMULPD Y10, mb, Y15;  \
	VADDPD Y15, acc, acc; \
	VMULPD Y11, mc, Y15;  \
	VADDPD Y15, acc, acc

#define ROWS \
	ROW(Y0, Y1, Y2, Y12); \
	ROW(Y3, Y4, Y5, Y13); \
	ROW(Y6, Y7, Y8, Y14)

#define LINE(o, s) \
	VMOVUPD 8*(o)(SI), Y9;          \
	VMOVUPD 8*((o)+(s))(SI), Y10;   \
	VMOVUPD 8*((o)+2*(s))(SI), Y11; \
	ROWS;                           \
	VMOVUPD Y12, 8*(o)(DI);         \
	VMOVUPD Y13, 8*((o)+(s))(DI);   \
	VMOVUPD Y14, 8*((o)+2*(s))(DI)

// cX: stride 3, nine 9-blocks. A row is 3 wide (the components of one
// lattice point), so lane 3 of every load and store is the first float of
// the next row: loaded and computed but never kept — the next row's store,
// issued after it, overwrites it. The last row of the array has no next
// row: its load and store are masked to three lanes.
TEXT cX<>(SB), NOSPLIT|NOFRAME, $0-0
	LOADM
	LINE(0, 3)
	LINE(9, 3)
	LINE(18, 3)
	LINE(27, 3)
	LINE(36, 3)
	LINE(45, 3)
	LINE(54, 3)
	LINE(63, 3)
	VMOVUPD 8*72(SI), Y9
	VMOVUPD 8*75(SI), Y10
	VMOVUPD lanes3<>(SB), Y15
	VMASKMOVPD 8*78(SI), Y15, Y11
	ROWS
	VMOVUPD Y12, 8*72(DI)
	VMOVUPD Y13, 8*75(DI)
	VMOVUPD lanes3<>(SB), Y15
	VMASKMOVPD Y14, Y15, 8*78(DI)
	RET

// cY: stride 9 inside each of the three 27-float k planes; the nine
// offsets r of a plane are lines r = 0, 4 and the overlapping 5 (r = 5…7
// are computed twice, to the same bits).
TEXT cY<>(SB), NOSPLIT|NOFRAME, $0-0
	LOADM
	LINE(0, 9)
	LINE(4, 9)
	LINE(5, 9)
	LINE(27, 9)
	LINE(31, 9)
	LINE(32, 9)
	LINE(54, 9)
	LINE(58, 9)
	LINE(59, 9)
	RET

// cZ: stride 27 over the whole array; r = 0, 4, …, 20 and the overlapping
// 23.
TEXT cZ<>(SB), NOSPLIT|NOFRAME, $0-0
	LOADM
	LINE(0, 27)
	LINE(4, 27)
	LINE(8, 27)
	LINE(12, 27)
	LINE(16, 27)
	LINE(20, 27)
	LINE(23, 27)
	RET

// acc81: DI[i] += SI[i] over an [81]float64 — twenty vectors and one
// scalar (an overlapping tail would add twice). Clobbers AX, Y0.
TEXT acc81<>(SB), NOSPLIT|NOFRAME, $0-0
	XORQ AX, AX
loop:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $640
	JLT  loop
	VMOVSD 640(DI), X0
	VADDSD 640(SI), X0, X0
	VMOVSD X0, 640(DI)
	RET

// ---------------------------------------------------------------------------
// tensorGrads and tensorScatterWrite: the call sequences of tensor.go.
// R12 = *tensorTables[float64], R13 = *kernScratchG[float64]; the four
// field pointers in R8-R11. Clobber DX, SI, DI, AX, Y0-Y15.
// ---------------------------------------------------------------------------

// grads: R8 = f, R9-R11 = g0, g1, g2.
TEXT grads<>(SB), NOSPLIT|NOFRAME, $0-0
	LEAQ TAB_B1(R12), DX; MOVQ R8, SI; LEAQ KS_T0(R13), DI; CALL cX<>(SB)           // tB
	LEAQ TAB_D1(R12), DX; MOVQ R8, SI; LEAQ KS_T1(R13), DI; CALL cX<>(SB)           // tD
	LEAQ TAB_B1(R12), DX; LEAQ KS_T0(R13), SI; LEAQ KS_T2(R13), DI; CALL cY<>(SB)   // tBB
	LEAQ TAB_B1(R12), DX; LEAQ KS_T1(R13), SI; LEAQ KS_T3(R13), DI; CALL cY<>(SB)   // tDB
	LEAQ TAB_D1(R12), DX; LEAQ KS_T0(R13), SI; LEAQ KS_T4(R13), DI; CALL cY<>(SB)   // tBD
	LEAQ TAB_B1(R12), DX; LEAQ KS_T3(R13), SI; MOVQ R9, DI; CALL cZ<>(SB)           // g0
	LEAQ TAB_B1(R12), DX; LEAQ KS_T4(R13), SI; MOVQ R10, DI; CALL cZ<>(SB)          // g1
	LEAQ TAB_D1(R12), DX; LEAQ KS_T2(R13), SI; MOVQ R11, DI; CALL cZ<>(SB)          // g2
	RET

// scatter: R8-R10 = h0, h1, h2, R11 = ye.
TEXT scatter<>(SB), NOSPLIT|NOFRAME, $0-0
	LEAQ TAB_B1T(R12), DX; MOVQ R8, SI; LEAQ KS_T0(R13), DI; CALL cZ<>(SB)          // s0
	LEAQ TAB_B1T(R12), DX; MOVQ R9, SI; LEAQ KS_T1(R13), DI; CALL cZ<>(SB)          // s1
	LEAQ TAB_D1T(R12), DX; MOVQ R10, SI; LEAQ KS_T2(R13), DI; CALL cZ<>(SB)         // s2
	LEAQ TAB_B1T(R12), DX; LEAQ KS_T0(R13), SI; LEAQ KS_T3(R13), DI; CALL cY<>(SB)  // t0
	LEAQ TAB_D1T(R12), DX; LEAQ KS_T1(R13), SI; LEAQ KS_T4(R13), DI; CALL cY<>(SB)  // t12
	LEAQ TAB_B1T(R12), DX; LEAQ KS_T2(R13), SI; LEAQ KS_T5(R13), DI; CALL cY<>(SB)  // tmp
	LEAQ KS_T5(R13), SI; LEAQ KS_T4(R13), DI; CALL acc81<>(SB)                      // t12 += tmp
	LEAQ TAB_D1T(R12), DX; LEAQ KS_T3(R13), SI; MOVQ R11, DI; CALL cX<>(SB)         // ye
	LEAQ TAB_B1T(R12), DX; LEAQ KS_T4(R13), SI; LEAQ KS_T5(R13), DI; CALL cX<>(SB)  // tmp
	LEAQ KS_T5(R13), SI; MOVQ R11, DI; CALL acc81<>(SB)                             // ye += tmp
	RET

// ---------------------------------------------------------------------------
// The resident kernel's coefficient multiply at one quadrature point q,
// lanes = the component a (3 of 4 used). AX = &coef[15q], SI = &ks.ug0[3q];
// ug1, ug2, h0, h1, h2 sit at fixed distances from ug0 in the arena.
//
//   G_e = ug_e[3q…]          (g[a][e] in lane a)      Y0-Y2
//   K_e = coef[6+3e…]        (Ks[e][a] in lane a)     Y3-Y5
//   H_d = (sM[d][0]·G_0 + sM[d][1]·G_1) + sM[d][2]·G_2                Y9-Y11
//   T_m = (g[m][0]·K_0 + g[m][1]·K_1) + g[m][2]·K_2                   Y12-Y14
//   H_d += (Ks[d][0]·T_0 + Ks[d][1]·T_1) + Ks[d][2]·T_2
//   h_d[3q…] = H_d
// ---------------------------------------------------------------------------

#define UG1 (KS_UG1-KS_UG0)
#define UG2 (KS_UG2-KS_UG0)
#define H0  (KS_H0-KS_UG0)
#define H1  (KS_H1-KS_UG0)
#define H2  (KS_H2-KS_UG0)

// acc = (bcast(pa)·va + bcast(pb)·vb) + bcast(pc)·vc; Y6, Y15 scratch.
#define BROW(pa, va, pb, vb, pc, vc, acc) \
	VBROADCASTSD pa, Y6;  \
	VMULPD va, Y6, acc;   \
	VBROADCASTSD pb, Y6;  \
	VMULPD vb, Y6, Y15;   \
	VADDPD Y15, acc, acc; \
	VBROADCASTSD pc, Y6;  \
	VMULPD vc, Y6, Y15;   \
	VADDPD Y15, acc, acc

#define QP_COMPUTE \
	BROW(0(AX), Y0, 8(AX), Y1, 16(AX), Y2, Y9);            \
	BROW(8(AX), Y0, 24(AX), Y1, 32(AX), Y2, Y10);          \
	BROW(16(AX), Y0, 32(AX), Y1, 40(AX), Y2, Y11);         \
	BROW(0(SI), Y3, UG1(SI), Y4, UG2(SI), Y5, Y12);        \
	BROW(8(SI), Y3, UG1+8(SI), Y4, UG2+8(SI), Y5, Y13);    \
	BROW(16(SI), Y3, UG1+16(SI), Y4, UG2+16(SI), Y5, Y14); \
	BROW(48(AX), Y12, 56(AX), Y13, 64(AX), Y14, Y0);       \
	VADDPD Y0, Y9, Y9;                                     \
	BROW(72(AX), Y12, 80(AX), Y13, 88(AX), Y14, Y1);       \
	VADDPD Y1, Y10, Y10;                                   \
	BROW(96(AX), Y12, 104(AX), Y13, 112(AX), Y14, Y2);     \
	VADDPD Y2, Y11, Y11

// ---------------------------------------------------------------------------
// Go-callable routines.
// ---------------------------------------------------------------------------

// func cXavx2(m *[3][3]float64, in, out *[81]float64)
TEXT ·cXavx2(SB), 0, $0-24
	MOVQ m+0(FP), DX
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	CALL cX<>(SB)
	VZEROUPPER
	RET

// func cYavx2(m *[3][3]float64, in, out *[81]float64)
TEXT ·cYavx2(SB), 0, $0-24
	MOVQ m+0(FP), DX
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	CALL cY<>(SB)
	VZEROUPPER
	RET

// func cZavx2(m *[3][3]float64, in, out *[81]float64)
TEXT ·cZavx2(SB), 0, $0-24
	MOVQ m+0(FP), DX
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	CALL cZ<>(SB)
	VZEROUPPER
	RET

// func tensorGradsAVX2(f, g0, g1, g2 *[81]float64, tab *tensorTables[float64], ks *kernScratchG[float64])
TEXT ·tensorGradsAVX2(SB), 0, $0-48
	MOVQ f+0(FP), R8
	MOVQ g0+8(FP), R9
	MOVQ g1+16(FP), R10
	MOVQ g2+24(FP), R11
	MOVQ tab+32(FP), R12
	MOVQ ks+40(FP), R13
	CALL grads<>(SB)
	VZEROUPPER
	RET

// func tensorScatterWriteAVX2(h0, h1, h2, ye *[81]float64, tab *tensorTables[float64], ks *kernScratchG[float64])
TEXT ·tensorScatterWriteAVX2(SB), 0, $0-48
	MOVQ h0+0(FP), R8
	MOVQ h1+8(FP), R9
	MOVQ h2+16(FP), R10
	MOVQ ye+24(FP), R11
	MOVQ tab+32(FP), R12
	MOVQ ks+40(FP), R13
	CALL scatter<>(SB)
	VZEROUPPER
	RET

// func residentElementAVX2(coef *[405]float64, ue, ye *[81]float64, tab *tensorTables[float64], ks *kernScratchG[float64])
//
// residentElement[float64] whole: gradients of ue into ks.ug*, the
// coefficient multiply into ks.h*, the adjoint contractions into ye.
TEXT ·residentElementAVX2(SB), 0, $0-40
	MOVQ ue+8(FP), R8
	MOVQ tab+24(FP), R12
	MOVQ ks+32(FP), R13
	LEAQ KS_UG0(R13), R9
	LEAQ KS_UG1(R13), R10
	LEAQ KS_UG2(R13), R11
	CALL grads<>(SB)

	MOVQ coef+0(FP), AX
	LEAQ KS_UG0(R13), SI
	MOVQ $26, CX
qp:
	// Lane 3 of each 3-wide load is the next point's first float, and of
	// each store is overwritten by the next point's.
	VMOVUPD 0(SI), Y0
	VMOVUPD UG1(SI), Y1
	VMOVUPD UG2(SI), Y2
	VMOVUPD 48(AX), Y3
	VMOVUPD 72(AX), Y4
	VMOVUPD 96(AX), Y5
	QP_COMPUTE
	VMOVUPD Y9, H0(SI)
	VMOVUPD Y10, H1(SI)
	VMOVUPD Y11, H2(SI)
	ADDQ $120, AX
	ADDQ $24, SI
	DECQ CX
	JNZ  qp
	// q = 26 ends every block it touches: masked.
	VMOVUPD lanes3<>(SB), Y15
	VMASKMOVPD 0(SI), Y15, Y0
	VMASKMOVPD UG1(SI), Y15, Y1
	VMASKMOVPD UG2(SI), Y15, Y2
	VMOVUPD 48(AX), Y3
	VMOVUPD 72(AX), Y4
	VMASKMOVPD 96(AX), Y15, Y5
	QP_COMPUTE
	VMOVUPD lanes3<>(SB), Y15
	VMASKMOVPD Y9, Y15, H0(SI)
	VMASKMOVPD Y10, Y15, H1(SI)
	VMASKMOVPD Y11, Y15, H2(SI)

	LEAQ KS_H0(R13), R8
	LEAQ KS_H1(R13), R9
	LEAQ KS_H2(R13), R10
	MOVQ ye+16(FP), R11
	CALL scatter<>(SB)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// The element matrix of the viscous block (viscousBatch.matrixGo in
// assemble.go) for four elements at once, one per lane: g[3(n·27+q)+c] at
// byte 96(27n+q)+32c of b, s[q] at VB_S+32q, entry (r, c) of ae at
// 32(81r+c). A node pair (i, n) keeps its 3×3 block in Y0-Y8 while
// the quadrature points pass in order:
//
//   Y15 = s, Y9-Y11 = ∇N_i, Y12 = dot = s·((gi0·gn0 + gi1·gn1) + gi2·gn2)
//   row a: Y13 = s·gn_a; acc(a,b) += Y13·gi_b (b = 0, 1, 2); acc(a,a) += dot
// ---------------------------------------------------------------------------

#define VB_S 69984

// Row a of the 3×3 block: ga at byte o of the gn point in CX.
#define VROW(o, r0, r1, r2) \
	VMULPD o(CX), Y15, Y13; \
	VMULPD Y9, Y13, Y14;    \
	VADDPD Y14, r0, r0;     \
	VMULPD Y10, Y13, Y14;   \
	VADDPD Y14, r1, r1;     \
	VMULPD Y11, Y13, Y14;   \
	VADDPD Y14, r2, r2

// func viscousMatrixAVX2(b *viscousInputs, ae *viscousMats)
//
// SI = g, BX = s, DI = the end of s (the quadrature loop's bound); R8 =
// ∇N_i at q = 0 and R9 = ∇N_n at q = 0, R10 = the block row of node i in
// ae and R11 = the block (i, n), R12 and R13 count i and n down; AX, CX,
// DX walk ∇N_i, ∇N_n and s over the quadrature points.
TEXT ·viscousMatrixAVX2(SB), NOSPLIT, $0-16
	MOVQ b+0(FP), SI
	LEAQ VB_S(SI), BX
	LEAQ (VB_S+32*27)(SI), DI
	MOVQ ae+8(FP), R10
	MOVQ SI, R8
	MOVQ $27, R12
inode:
	MOVQ SI, R9
	MOVQ R10, R11
	MOVQ $27, R13
nnode:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	MOVQ R8, AX
	MOVQ R9, CX
	MOVQ BX, DX
qpoint:
	VMOVUPD (DX), Y15
	VMOVUPD 0(AX), Y9
	VMOVUPD 32(AX), Y10
	VMOVUPD 64(AX), Y11
	VMULPD 0(CX), Y9, Y12
	VMULPD 32(CX), Y10, Y13
	VADDPD Y13, Y12, Y12
	VMULPD 64(CX), Y11, Y13
	VADDPD Y13, Y12, Y12
	VMULPD Y12, Y15, Y12
	VROW(0, Y0, Y1, Y2)
	VADDPD Y12, Y0, Y0
	VROW(32, Y3, Y4, Y5)
	VADDPD Y12, Y4, Y4
	VROW(64, Y6, Y7, Y8)
	VADDPD Y12, Y8, Y8
	ADDQ $96, AX
	ADDQ $96, CX
	ADDQ $32, DX
	CMPQ DX, DI
	JNE  qpoint
	VMOVUPD Y0, 0(R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, (32*81)(R11)
	VMOVUPD Y4, (32*81+32)(R11)
	VMOVUPD Y5, (32*81+64)(R11)
	VMOVUPD Y6, (32*162)(R11)
	VMOVUPD Y7, (32*162+32)(R11)
	VMOVUPD Y8, (32*162+64)(R11)
	ADDQ $(96*27), R9
	ADDQ $96, R11
	DECQ R13
	JNZ  nnode
	ADDQ $(96*27), R8
	ADDQ $(32*243), R10
	DECQ R12
	JNZ  inode
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// CPUID.1:ECX OSXSAVE (27) and AVX (28), XCR0 bits 1 and 2 (the OS saves
// XMM and YMM state), CPUID.(7,0):EBX AVX2 (5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET
