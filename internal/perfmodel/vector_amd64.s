// The packed multiply-add loop behind MeasureVectorFlops: the instruction
// mix of internal/fem's AVX2 element kernel (tensor_amd64.s) — VMULPD and
// VADDPD, no fused multiply-add — on twelve independent chains, enough to
// cover the latency of a dependent multiply and add on three FP ports.

#include "textflag.h"

DATA vecx<>+0(SB)/8, $0.999999
GLOBL vecx<>(SB), RODATA|NOPTR, $8
DATA vecc<>+0(SB)/8, $0.0001
GLOBL vecc<>(SB), RODATA|NOPTR, $8

#define MUL(acc) VMULPD Y12, acc, acc
#define ADD(acc) VADDPD Y13, acc, acc
#define ALL(OP) \
	OP(Y0); OP(Y1); OP(Y2); OP(Y3); OP(Y4); OP(Y5); \
	OP(Y6); OP(Y7); OP(Y8); OP(Y9); OP(Y10); OP(Y11)

// func vectorMulAdd(n int)
//
// n times a = a·x + c on twelve 4-wide accumulators: 96 flops a pass. The
// iteration settles at c/(1−x) = 100, so no lane overflows or goes
// denormal however large n is.
TEXT ·vectorMulAdd(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
	VBROADCASTSD vecx<>(SB), Y12
	VBROADCASTSD vecc<>(SB), Y13
	VMOVAPD Y13, Y0
	VMOVAPD Y13, Y1
	VMOVAPD Y13, Y2
	VMOVAPD Y13, Y3
	VMOVAPD Y13, Y4
	VMOVAPD Y13, Y5
	VMOVAPD Y13, Y6
	VMOVAPD Y13, Y7
	VMOVAPD Y13, Y8
	VMOVAPD Y13, Y9
	VMOVAPD Y13, Y10
	VMOVAPD Y13, Y11
loop:
	ALL(MUL)
	ALL(ADD)
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET
