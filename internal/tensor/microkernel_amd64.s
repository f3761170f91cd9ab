//go:build amd64

#include "textflag.h"

// func cpuid(op, op2 uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL op2+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func kern4x8f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int)
//
// 4×8 float64 register tile over strided operands: step p reads the four
// A values a[r·ars + p·aps] and the eight B values b[p·bps … +7] (strides
// in elements). Accumulators Y0–Y7 (two 4-wide vectors per row), B row
// Y8/Y9, broadcast A value Y10, product Y11. Multiply and add are
// separate instructions (no FMA) so every element sees exactly the scalar
// rounding sequence, in ascending-p order.
TEXT ·kern4x8f64(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	MOVQ kc+56(FP), CX
	SHLQ $3, SI            // strides in bytes
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(SI*2), DX    // 3·ldc
	LEAQ (R8)(R8*2), R11   // 3·ars

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(SI*1), Y2
	VMOVUPD 32(DI)(SI*1), Y3
	VMOVUPD (DI)(SI*2), Y4
	VMOVUPD 32(DI)(SI*2), Y5
	VMOVUPD (DI)(DX*1), Y6
	VMOVUPD 32(DI)(DX*1), Y7

f64loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1

	VBROADCASTSD (AX)(R8*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3

	VBROADCASTSD (AX)(R8*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5

	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7

	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  f64loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(SI*1)
	VMOVUPD Y3, 32(DI)(SI*1)
	VMOVUPD Y4, (DI)(SI*2)
	VMOVUPD Y5, 32(DI)(SI*2)
	VMOVUPD Y6, (DI)(DX*1)
	VMOVUPD Y7, 32(DI)(DX*1)
	VZEROUPPER
	RET

// func kern4x8f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int)
//
// 4×8 float32 tile: one 8-wide vector per row (Y0–Y3), B row Y8,
// broadcast A Y10, product Y11.
TEXT ·kern4x8f32(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	MOVQ kc+56(FP), CX
	SHLQ $2, SI            // strides in bytes
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(SI*2), DX    // 3·ldc
	LEAQ (R8)(R8*2), R11   // 3·ars

	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(DX*1), Y3

f32loop:
	VMOVUPS (BX), Y8

	VBROADCASTSS (AX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0

	VBROADCASTSS (AX)(R8*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y1, Y1

	VBROADCASTSS (AX)(R8*2), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2

	VBROADCASTSS (AX)(R11*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y3, Y3

	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  f32loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(DX*1)
	VZEROUPPER
	RET
