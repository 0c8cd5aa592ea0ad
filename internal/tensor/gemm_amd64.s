#include "textflag.h"

// func fmaKernel4x8(a *float64, ro *[4]int, b, c *float64, k1, k2, s1, s2, ldb, ldc int, acc bool)
//
// The 4x8 register-tile GEMM microkernel: 8 YMM accumulators hold the
// whole C tile while the operands stream past, read through strides —
// step p = q1*k2 + q2 of row r of A at a[ro[r] + q1*s1 + q2*s2], row p
// of B at b[p*ldb]. Per k-step it issues 2 B-row loads, 4 A broadcasts
// and 8 fused multiply-adds — one exactly-rounded FMA per product,
// ascending k, matching the portable math.FMA kernel bit for bit.
//
// Registers: DI is row 0 of A at step group q1, SI row 0 at step p,
// R8–R10 rows 1–3 relative to row 0 (bytes), DX row p of B, AX and CX
// the q1 and q2 counters.
TEXT ·fmaKernel4x8(SB), NOSPLIT, $0-81
	MOVQ ro+8(FP), AX
	MOVQ (AX), DI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10
	SUBQ DI, R8
	SUBQ DI, R9
	SUBQ DI, R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	MOVQ a+0(FP), SI
	LEAQ (SI)(DI*8), DI
	MOVQ b+16(FP), DX
	MOVQ k1+32(FP), AX
	MOVQ k2+40(FP), BX
	MOVQ s1+48(FP), R11
	SHLQ $3, R11
	MOVQ s2+56(FP), R12
	SHLQ $3, R12
	MOVQ ldb+64(FP), R13
	SHLQ $3, R13
	CMPB acc+80(FP), $0
	JEQ  zero
	MOVQ c+24(FP), SI
	MOVQ ldc+72(FP), CX
	SHLQ $3, CX
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	ADDQ CX, SI
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	ADDQ CX, SI
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	ADDQ CX, SI
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	JMP  outer
zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
outer:
	MOVQ DI, SI
	MOVQ BX, CX
loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (SI)(R8*1), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (SI)(R9*1), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VBROADCASTSD (SI)(R10*1), Y11
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7
	ADDQ R13, DX
	ADDQ R12, SI
	DECQ CX
	JNZ  loop
	ADDQ R11, DI
	DECQ AX
	JNZ  outer
	MOVQ c+24(FP), SI
	MOVQ ldc+72(FP), CX
	SHLQ $3, CX
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	ADDQ CX, SI
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	ADDQ CX, SI
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	ADDQ CX, SI
	VMOVUPD Y6, (SI)
	VMOVUPD Y7, 32(SI)
	VZEROUPPER
	RET

// func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
