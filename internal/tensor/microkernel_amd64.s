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

// The GEMM kernels take a C mode (cMode in matmul.go) after kc:
//
//	0 load: the accumulators start from C, and the store overwrites it
//	1 zero: they start at +0 (VPXORD/VXORP*), and the store overwrites C
//	2 fold: they start at +0, and the store writes C + Σ, C the first
//	        operand of the add, as AddInto's dst += src
//
// Every kernel multiplies and adds with separate instructions (no FMA) and
// steps in ascending p, so each element sees exactly the scalar rounding
// sequence.

// func kern4x8f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)
//
// 4×8 float64 register tile over strided operands: step p reads the four
// A values a[r·ars + p·aps] and the eight B values b[p·bps … +7] (strides
// in elements). Accumulators Y0–Y7 (two 4-wide vectors per row), B row
// Y8/Y9, broadcast A value Y10, product Y11.
TEXT ·kern4x8f64(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	MOVQ kc+56(FP), CX
	MOVQ mode+64(FP), R12
	SHLQ $3, SI            // strides in bytes
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(SI*2), DX    // 3·ldc
	LEAQ (R8)(R8*2), R11   // 3·ars

	CMPQ R12, $0
	JNE  y64clear
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(SI*1), Y2
	VMOVUPD 32(DI)(SI*1), Y3
	VMOVUPD (DI)(SI*2), Y4
	VMOVUPD 32(DI)(SI*2), Y5
	VMOVUPD (DI)(DX*1), Y6
	VMOVUPD 32(DI)(DX*1), Y7
	JMP  y64loop

y64clear:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

y64loop:
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
	JNZ  y64loop

	CMPQ R12, $2
	JNE  y64store
	VMOVUPD (DI), Y8
	VADDPD Y0, Y8, Y0
	VMOVUPD 32(DI), Y9
	VADDPD Y1, Y9, Y1
	VMOVUPD (DI)(SI*1), Y8
	VADDPD Y2, Y8, Y2
	VMOVUPD 32(DI)(SI*1), Y9
	VADDPD Y3, Y9, Y3
	VMOVUPD (DI)(SI*2), Y8
	VADDPD Y4, Y8, Y4
	VMOVUPD 32(DI)(SI*2), Y9
	VADDPD Y5, Y9, Y5
	VMOVUPD (DI)(DX*1), Y8
	VADDPD Y6, Y8, Y6
	VMOVUPD 32(DI)(DX*1), Y9
	VADDPD Y7, Y9, Y7

y64store:
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

// func kern4x8f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)
//
// 4×8 float32 tile: one 8-wide vector per row (Y0–Y3), B row Y8,
// broadcast A Y10, product Y11.
TEXT ·kern4x8f32(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	MOVQ kc+56(FP), CX
	MOVQ mode+64(FP), R12
	SHLQ $2, SI            // strides in bytes
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(SI*2), DX    // 3·ldc
	LEAQ (R8)(R8*2), R11   // 3·ars

	CMPQ R12, $0
	JNE  y32clear
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(DX*1), Y3
	JMP  y32loop

y32clear:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

y32loop:
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
	JNZ  y32loop

	CMPQ R12, $2
	JNE  y32store
	VMOVUPS (DI), Y8
	VADDPS Y0, Y8, Y0
	VMOVUPS (DI)(SI*1), Y9
	VADDPS Y1, Y9, Y1
	VMOVUPS (DI)(SI*2), Y8
	VADDPS Y2, Y8, Y2
	VMOVUPS (DI)(DX*1), Y9
	VADDPS Y3, Y9, Y3

y32store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(DX*1)
	VZEROUPPER
	RET

// func kern4x16f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)
//
// 4×16 float64 tile in ZMM registers (AVX512F): accumulators Z0–Z7 (two
// 8-wide vectors per row), B row Z8/Z9, broadcast A value Z10, product
// Z11, C for the fold Z12/Z13.
TEXT ·kern4x16f64(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	MOVQ kc+56(FP), CX
	MOVQ mode+64(FP), R12
	SHLQ $3, SI            // strides in bytes
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(SI*2), DX    // 3·ldc
	LEAQ (R8)(R8*2), R11   // 3·ars

	CMPQ R12, $0
	JNE  z64clear
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(SI*1), Z2
	VMOVUPD 64(DI)(SI*1), Z3
	VMOVUPD (DI)(SI*2), Z4
	VMOVUPD 64(DI)(SI*2), Z5
	VMOVUPD (DI)(DX*1), Z6
	VMOVUPD 64(DI)(DX*1), Z7
	JMP  z64loop

z64clear:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

z64loop:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9

	VBROADCASTSD (AX), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z0, Z0
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z1, Z1

	VBROADCASTSD (AX)(R8*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z2, Z2
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z3, Z3

	VBROADCASTSD (AX)(R8*2), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z4, Z4
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z5, Z5

	VBROADCASTSD (AX)(R11*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z6, Z6
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z7, Z7

	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  z64loop

	CMPQ R12, $2
	JNE  z64store
	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD Z0, Z12, Z0
	VADDPD Z1, Z13, Z1
	VMOVUPD (DI)(SI*1), Z12
	VMOVUPD 64(DI)(SI*1), Z13
	VADDPD Z2, Z12, Z2
	VADDPD Z3, Z13, Z3
	VMOVUPD (DI)(SI*2), Z12
	VMOVUPD 64(DI)(SI*2), Z13
	VADDPD Z4, Z12, Z4
	VADDPD Z5, Z13, Z5
	VMOVUPD (DI)(DX*1), Z12
	VMOVUPD 64(DI)(DX*1), Z13
	VADDPD Z6, Z12, Z6
	VADDPD Z7, Z13, Z7

z64store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(SI*1)
	VMOVUPD Z3, 64(DI)(SI*1)
	VMOVUPD Z4, (DI)(SI*2)
	VMOVUPD Z5, 64(DI)(SI*2)
	VMOVUPD Z6, (DI)(DX*1)
	VMOVUPD Z7, 64(DI)(DX*1)
	VZEROUPPER
	RET

// func kern4x16f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)
//
// 4×16 float32 tile: one 16-wide ZMM per row (Z0–Z3), B row Z8,
// broadcast A Z10, product Z11, C for the fold Z12–Z15.
TEXT ·kern4x16f32(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	MOVQ kc+56(FP), CX
	MOVQ mode+64(FP), R12
	SHLQ $2, SI            // strides in bytes
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(SI*2), DX    // 3·ldc
	LEAQ (R8)(R8*2), R11   // 3·ars

	CMPQ R12, $0
	JNE  z32clear
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(SI*1), Z1
	VMOVUPS (DI)(SI*2), Z2
	VMOVUPS (DI)(DX*1), Z3
	JMP  z32loop

z32clear:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3

z32loop:
	VMOVUPS (BX), Z8

	VBROADCASTSS (AX), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z0, Z0

	VBROADCASTSS (AX)(R8*1), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z1, Z1

	VBROADCASTSS (AX)(R8*2), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z2, Z2

	VBROADCASTSS (AX)(R11*1), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z3, Z3

	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  z32loop

	CMPQ R12, $2
	JNE  z32store
	VMOVUPS (DI), Z12
	VMOVUPS (DI)(SI*1), Z13
	VMOVUPS (DI)(SI*2), Z14
	VMOVUPS (DI)(DX*1), Z15
	VADDPS Z0, Z12, Z0
	VADDPS Z1, Z13, Z1
	VADDPS Z2, Z14, Z2
	VADDPS Z3, Z15, Z3

z32store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(SI*1)
	VMOVUPS Z2, (DI)(SI*2)
	VMOVUPS Z3, (DI)(DX*1)
	VZEROUPPER
	RET

// The masked edge tiles, kern4x16mf{64,32}(…, mode, mr, nr), run any tile
// of 1–4 rows and 1–16 columns in the registers of the full one. An opmask
// holds the low nr column bits (K1; float64 also K2 for columns 8–15):
// every C access and every B load is masked, so no lane past nr is read
// or written, and a masked lane suppresses its fault. A row at or past mr
// takes row 0's A and C offsets, so its accumulators compute row 0's exact
// bits; the loop has no branch on mr. The fold loads every C row before
// the first store, and the store goes highest row first, so row 0's own
// result is the last written there.

// func kern4x16mf64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode, mr, nr int)
//
// Registers as kern4x16f64; A row offsets R8, R11, R12 and C row offsets
// SI, DX, R13 for rows 1–3, C for the fold Z12–Z19.
TEXT ·kern4x16mf64(SB), NOSPLIT, $0-88
	MOVQ nr+80(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX                // the low nr bits
	KMOVW AX, K1
	SHRL $8, AX
	KMOVW AX, K2

	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	SHLQ $3, SI            // strides in bytes
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*1), R11   // 2·ars
	LEAQ (R8)(R8*2), R12   // 3·ars
	LEAQ (SI)(SI*1), DX    // 2·ldc
	LEAQ (SI)(SI*2), R13   // 3·ldc
	MOVQ mr+72(FP), CX
	XORQ R14, R14
	CMPQ CX, $2
	CMOVQLT R14, R8
	CMOVQLT R14, SI
	CMPQ CX, $3
	CMOVQLT R14, R11
	CMOVQLT R14, DX
	CMPQ CX, $4
	CMOVQLT R14, R12
	CMOVQLT R14, R13
	MOVQ kc+56(FP), CX
	MOVQ mode+64(FP), R14

	CMPQ R14, $0
	JNE  m64clear
	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z 64(DI), K2, Z1
	VMOVUPD.Z (DI)(SI*1), K1, Z2
	VMOVUPD.Z 64(DI)(SI*1), K2, Z3
	VMOVUPD.Z (DI)(DX*1), K1, Z4
	VMOVUPD.Z 64(DI)(DX*1), K2, Z5
	VMOVUPD.Z (DI)(R13*1), K1, Z6
	VMOVUPD.Z 64(DI)(R13*1), K2, Z7
	JMP  m64loop

m64clear:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

m64loop:
	VMOVUPD.Z (BX), K1, Z8
	VMOVUPD.Z 64(BX), K2, Z9

	VBROADCASTSD (AX), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z0, Z0
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z1, Z1

	VBROADCASTSD (AX)(R8*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z2, Z2
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z3, Z3

	VBROADCASTSD (AX)(R11*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z4, Z4
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z5, Z5

	VBROADCASTSD (AX)(R12*1), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z6, Z6
	VMULPD Z9, Z10, Z11
	VADDPD Z11, Z7, Z7

	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  m64loop

	CMPQ R14, $2
	JNE  m64store
	VMOVUPD.Z (DI), K1, Z12
	VMOVUPD.Z 64(DI), K2, Z13
	VMOVUPD.Z (DI)(SI*1), K1, Z14
	VMOVUPD.Z 64(DI)(SI*1), K2, Z15
	VMOVUPD.Z (DI)(DX*1), K1, Z16
	VMOVUPD.Z 64(DI)(DX*1), K2, Z17
	VMOVUPD.Z (DI)(R13*1), K1, Z18
	VMOVUPD.Z 64(DI)(R13*1), K2, Z19
	VADDPD Z0, Z12, Z0
	VADDPD Z1, Z13, Z1
	VADDPD Z2, Z14, Z2
	VADDPD Z3, Z15, Z3
	VADDPD Z4, Z16, Z4
	VADDPD Z5, Z17, Z5
	VADDPD Z6, Z18, Z6
	VADDPD Z7, Z19, Z7

m64store:
	VMOVUPD Z6, K1, (DI)(R13*1)
	VMOVUPD Z7, K2, 64(DI)(R13*1)
	VMOVUPD Z4, K1, (DI)(DX*1)
	VMOVUPD Z5, K2, 64(DI)(DX*1)
	VMOVUPD Z2, K1, (DI)(SI*1)
	VMOVUPD Z3, K2, 64(DI)(SI*1)
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VZEROUPPER
	RET

// func kern4x16mf32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode, mr, nr int)
//
// Registers as kern4x16f32; row offsets as kern4x16mf64.
TEXT ·kern4x16mf32(SB), NOSPLIT, $0-88
	MOVQ nr+80(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX                // the low nr bits
	KMOVW AX, K1

	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ bps+48(FP), R10
	SHLQ $2, SI            // strides in bytes
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (R8)(R8*1), R11   // 2·ars
	LEAQ (R8)(R8*2), R12   // 3·ars
	LEAQ (SI)(SI*1), DX    // 2·ldc
	LEAQ (SI)(SI*2), R13   // 3·ldc
	MOVQ mr+72(FP), CX
	XORQ R14, R14
	CMPQ CX, $2
	CMOVQLT R14, R8
	CMOVQLT R14, SI
	CMPQ CX, $3
	CMOVQLT R14, R11
	CMOVQLT R14, DX
	CMPQ CX, $4
	CMOVQLT R14, R12
	CMOVQLT R14, R13
	MOVQ kc+56(FP), CX
	MOVQ mode+64(FP), R14

	CMPQ R14, $0
	JNE  m32clear
	VMOVUPS.Z (DI), K1, Z0
	VMOVUPS.Z (DI)(SI*1), K1, Z1
	VMOVUPS.Z (DI)(DX*1), K1, Z2
	VMOVUPS.Z (DI)(R13*1), K1, Z3
	JMP  m32loop

m32clear:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3

m32loop:
	VMOVUPS.Z (BX), K1, Z8

	VBROADCASTSS (AX), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z0, Z0

	VBROADCASTSS (AX)(R8*1), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z1, Z1

	VBROADCASTSS (AX)(R11*1), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z2, Z2

	VBROADCASTSS (AX)(R12*1), Z10
	VMULPS Z8, Z10, Z11
	VADDPS Z11, Z3, Z3

	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  m32loop

	CMPQ R14, $2
	JNE  m32store
	VMOVUPS.Z (DI), K1, Z12
	VMOVUPS.Z (DI)(SI*1), K1, Z13
	VMOVUPS.Z (DI)(DX*1), K1, Z14
	VMOVUPS.Z (DI)(R13*1), K1, Z15
	VADDPS Z0, Z12, Z0
	VADDPS Z1, Z13, Z1
	VADDPS Z2, Z14, Z2
	VADDPS Z3, Z15, Z3

m32store:
	VMOVUPS Z3, K1, (DI)(R13*1)
	VMOVUPS Z2, K1, (DI)(DX*1)
	VMOVUPS Z1, K1, (DI)(SI*1)
	VMOVUPS Z0, K1, (DI)
	VZEROUPPER
	RET
