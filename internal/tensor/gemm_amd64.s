#include "textflag.h"

// func fmaKernel4x8(a, b, c *float64, k, lda, sa, ldb, ldc int, acc bool)
//
// The 4x8 register-tile GEMM microkernel: 8 YMM accumulators hold the
// whole C tile while the operands stream past, read through strides —
// A(r, p) at a[r*lda + p*sa], row p of B at b[p*ldb]. Per k-step it
// issues 2 B-row loads, 4 A broadcasts and 8 fused multiply-adds — one
// exactly-rounded FMA per product, ascending k, matching the portable
// math.FMA kernel bit for bit.
TEXT ·fmaKernel4x8(SB), NOSPLIT, $0-65
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ lda+32(FP), AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), BX
	MOVQ sa+40(FP), R12
	SHLQ $3, R12
	MOVQ ldb+48(FP), R13
	SHLQ $3, R13
	MOVQ ldc+56(FP), R8
	SHLQ $3, R8
	LEAQ (DI)(R8*1), R9
	LEAQ (DI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	CMPB acc+64(FP), $0
	JEQ  zero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7
	JMP  loop
zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (SI)(AX*1), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (SI)(AX*2), Y10
	VFMADD231PD Y8, Y10, Y4
	VFMADD231PD Y9, Y10, Y5
	VBROADCASTSD (SI)(BX*1), Y11
	VFMADD231PD Y8, Y11, Y6
	VFMADD231PD Y9, Y11, Y7
	ADDQ R13, DX
	ADDQ R12, SI
	DECQ CX
	JNZ  loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
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
