//go:build amd64

#include "textflag.h"

// The row kernels (rows.go): LayerNorm forward and backward, ReLU and the
// one-add row ops, in ZMM registers (AVX512F), each performing its Go
// twin's IEEE operations in the twin's order with no FMA.
//
// LayerNorm's row statistics run one float64 lane per row, eight rows at a
// time: step j adds column j of the block's rows to the lane sums, so
// each lane sums its own row in ascending j, as the twin does. A block of
// eight rows loads them eight columns at a time and transposes each 8×8
// chunk in registers (TRANSPOSE8); the last d mod 8 columns, and every
// column of a block past the last row (whose missing rows K3 masks off),
// are gathered one at a time (VGATHERQPD, or VGATHERQPS and a widening
// VCVTPS2PD). The elementwise parts and the column sums (dγ, dβ, the bias
// gradient) run one lane per column, the last block of a row under a
// mask (K2). ReLU is VMAXP* with
// +0 as Intel's second source operand, which VMAXP* returns when either
// operand is NaN or both are zero: exactly v > 0 ? v : 0. Its backward is
// an ordered greater-than compare against +0 and a zero-masked move.

DATA rowsK<>+0x00(SB)/8, $0
DATA rowsK<>+0x08(SB)/8, $1
DATA rowsK<>+0x10(SB)/8, $2
DATA rowsK<>+0x18(SB)/8, $3
DATA rowsK<>+0x20(SB)/8, $4
DATA rowsK<>+0x28(SB)/8, $5
DATA rowsK<>+0x30(SB)/8, $6
DATA rowsK<>+0x38(SB)/8, $7
DATA rowsK<>+0x40(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL rowsK<>(SB), RODATA|NOPTR, $72

// MASKOF sets k to the low cnt bits (cnt ≤ 16). Clobbers BX and CX.
#define MASKOF(cnt, k) \
	MOVQ  cnt, CX; \
	MOVL  $1, BX; \
	SHLL  CX, BX; \
	DECL  BX; \
	KMOVW BX, k

// ROWS_SETUP takes d in DX and sets up the per-call constants: Z23 = the
// gather offsets r·d of the eight rows of a block, Z24 = float64(d), Z25 =
// 1.0, Z27 = the qword 1 (the row-lane index step), K2 = the mask of the
// d mod 8 columns past a row's last full vector. Clobbers AX, BX, CX,
// Z21 and Z22.
#define ROWS_SETUP \
	VPBROADCASTQ DX, Z21; \
	VMOVDQU64    rowsK<>+0x00(SB), Z22; \
	VPMULUDQ     Z21, Z22, Z23; \
	VCVTSI2SDQ   DX, X24, X24; \
	VBROADCASTSD X24, Z24; \
	VBROADCASTSD rowsK<>+0x40(SB), Z25; \
	VPBROADCASTQ rowsK<>+0x08(SB), Z27; \
	MOVQ         DX, AX; \
	ANDQ         $7, AX; \
	MASKOF(AX, K2)

// BLOCK_ROWS sets AX = min(8, R12), the rows of the block at hand, and K3
// to their lanes.
#define BLOCK_ROWS \
	MOVQ    $8, AX; \
	CMPQ    R12, AX; \
	CMOVQLT R12, AX; \
	MASKOF(AX, K3)

// GATHER64 and GATHER32 load lanes K3 of one column of the block's rows,
// at base, into dst as float64, and zero the other lanes.
#define GATHER64(base, dst) \
	KMOVW      K3, K1; \
	VPXORQ     dst, dst, dst; \
	VGATHERQPD (base)(Z23*8), K1, dst

#define GATHER32(base, ydst, dst) \
	KMOVW      K3, K1; \
	VPXORQ     dst, dst, dst; \
	VGATHERQPS (base)(Z23*4), K1, ydst; \
	VCVTPS2PD  ydst, dst

// ROWS8_64 and ROWS8_32 load eight consecutive rows (d, in DX, apart)
// of one eight-column chunk from base on as float64: row k into rk. tmp
// walks the rows.
#define ROWS8_64(base, tmp, r0, r1, r2, r3, r4, r5, r6, r7) \
	MOVQ    base, tmp; \
	VMOVUPD (tmp), r0; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r1; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r2; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r3; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r4; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r5; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r6; \
	LEAQ    (tmp)(DX*8), tmp; \
	VMOVUPD (tmp), r7

#define ROWS8_32(base, tmp, r0, r1, r2, r3, r4, r5, r6, r7) \
	MOVQ      base, tmp; \
	VCVTPS2PD (tmp), r0; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r1; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r2; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r3; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r4; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r5; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r6; \
	LEAQ      (tmp)(DX*4), tmp; \
	VCVTPS2PD (tmp), r7

// TRANSPOSE8 turns the 8×8 float64 block in r0…r7 (row k in rk) into its
// columns: column k in ck. It clobbers r0…r7. Pairs of rows interleave
// (t = VUNPCK{L,H}PD: lane pair k of t holds elements 2k, or 2k+1, of
// both rows), then two rounds of VSHUFF64X2 gather the 128-bit lanes:
// u0 = (r0 r1)₀ (r0 r1)₄ (r2 r3)₀ (r2 r3)₄, and so on, then column 0 =
// the even lanes of u0 and u4, column 4 their odd lanes.
#define TRANSPOSE8(r0, r1, r2, r3, r4, r5, r6, r7, c0, c1, c2, c3, c4, c5, c6, c7) \
	VUNPCKLPD  r1, r0, c0; \
	VUNPCKHPD  r1, r0, c1; \
	VUNPCKLPD  r3, r2, c2; \
	VUNPCKHPD  r3, r2, c3; \
	VUNPCKLPD  r5, r4, c4; \
	VUNPCKHPD  r5, r4, c5; \
	VUNPCKLPD  r7, r6, c6; \
	VUNPCKHPD  r7, r6, c7; \
	VSHUFF64X2 $0x88, c2, c0, r0; \
	VSHUFF64X2 $0xDD, c2, c0, r1; \
	VSHUFF64X2 $0x88, c3, c1, r2; \
	VSHUFF64X2 $0xDD, c3, c1, r3; \
	VSHUFF64X2 $0x88, c6, c4, r4; \
	VSHUFF64X2 $0xDD, c6, c4, r5; \
	VSHUFF64X2 $0x88, c7, c5, r6; \
	VSHUFF64X2 $0xDD, c7, c5, r7; \
	VSHUFF64X2 $0x88, r4, r0, c0; \
	VSHUFF64X2 $0xDD, r4, r0, c4; \
	VSHUFF64X2 $0x88, r5, r1, c2; \
	VSHUFF64X2 $0xDD, r5, r1, c6; \
	VSHUFF64X2 $0x88, r6, r2, c1; \
	VSHUFF64X2 $0xDD, r6, r2, c5; \
	VSHUFF64X2 $0x88, r7, r3, c3; \
	VSHUFF64X2 $0xDD, r7, r3, c7

// SUM8 adds c0 … c7 to acc, in that order.
#define SUM8(acc, c0, c1, c2, c3, c4, c5, c6, c7) \
	VADDPD c0, acc, acc; \
	VADDPD c1, acc, acc; \
	VADDPD c2, acc, acc; \
	VADDPD c3, acc, acc; \
	VADDPD c4, acc, acc; \
	VADDPD c5, acc, acc; \
	VADDPD c6, acc, acc; \
	VADDPD c7, acc, acc

// SQDEV squares c − mu in place.
#define SQDEV(mu, c) \
	VSUBPD mu, c, c; \
	VMULPD c, c, c

// MULBY64 and MULBY32 multiply c by the gain at off(base), broadcast.
#define MULBY64(off, base, c) \
	VMULPD.BCST off(base), c, c

#define MULBY32(off, base, c) \
	VBROADCASTSS off(base), Y2; \
	VCVTPS2PD    Y2, Z2; \
	VMULPD       Z2, c, c

// PRODSUM adds a·b to acc (through Z3).
#define PRODSUM(acc, a, b) \
	VMULPD b, a, Z3; \
	VADDPD Z3, acc, acc

// FOLD_MASK sets K5 to the lanes of the column block at AX columns left:
// the low eight, or K2's when fewer than eight remain.
#define FOLD_MASK(full) \
	MOVL  $0xFF, BX; \
	KMOVW BX, K5; \
	CMPQ  AX, $8; \
	JGE   full; \
	KMOVW K2, K5; \
full:

// FLAT_SETUP loads a flat kernel's out, first and second operands and
// vector count (n over the lane count, 2^shift).
#define FLAT_SETUP(shift) \
	MOVQ out+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX; \
	SHRQ $shift, CX

// BIAS_SETUP loads the bias kernels' operands: out in DI, b in SI, the
// row count in R12, the row length in bytes (cols << esize) in R10 and,
// from the column count cols, the full vectors per row (cols >> shift) in
// DX and K2 = the mask of the cols & tail columns past them. Clobbers AX,
// BX and CX.
#define BIAS_SETUP(shift, tail, esize) \
	MOVQ out+0(FP), DI; \
	MOVQ b+8(FP), SI; \
	MOVQ rows+16(FP), R12; \
	MOVQ cols+24(FP), DX; \
	MOVQ DX, R10; \
	SHLQ $esize, R10; \
	MOVQ DX, AX; \
	ANDQ $tail, AX; \
	MASKOF(AX, K2); \
	SHRQ $shift, DX

// FOLD_SETUP loads the column-fold kernels' operands: grad in DI, dy in SI,
// the row count in R12, the row length in bytes in R10, the columns left
// in AX, K2 = the mask of the cols & tail columns past the last full
// vector and K4 = a full vector's mask, full. Clobbers BX, CX and DX.
#define FOLD_SETUP(tail, full, esize) \
	MOVQ  grad+0(FP), DI; \
	MOVQ  dy+8(FP), SI; \
	MOVQ  rows+16(FP), R12; \
	MOVQ  cols+24(FP), AX; \
	MOVQ  AX, R10; \
	SHLQ  $esize, R10; \
	MOVQ  AX, DX; \
	ANDQ  $tail, DX; \
	MASKOF(DX, K2); \
	MOVL  $full, BX; \
	KMOVW BX, K4; \
	XORQ  R14, R14

// func lnFwd8f64(out, xhat, x, gain, bias, invStd unsafe.Pointer, n, d int, eps float64)
TEXT ·lnFwd8f64(SB), NOSPLIT, $0-72
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         gain+24(FP), R9
	MOVQ         bias+32(FP), R10
	MOVQ         invStd+40(FP), R11
	MOVQ         n+48(FP), R12
	MOVQ         d+56(FP), DX
	VBROADCASTSD eps+64(FP), Z20
	ROWS_SETUP

f64fblock:
	BLOCK_ROWS
	// mu = Σⱼ x / d, per row lane.
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, BX
	MOVQ   DX, CX
	CMPQ   AX, $8
	JNE    f64fmean // a partial block gathers every column
	SHRQ   $3, CX
	JZ     f64fmeantail

f64fmeanblk:
	ROWS8_64(BX, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	SUM8(Z0, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	ADDQ $64, BX
	DECQ CX
	JNZ  f64fmeanblk

f64fmeantail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   f64fmeandone

f64fmean:
	GATHER64(BX, Z1)
	VADDPD Z1, Z0, Z0
	ADDQ   $8, BX
	DECQ   CX
	JNZ    f64fmean

f64fmeandone:
	VDIVPD Z24, Z0, Z0

	// va = Σⱼ (x − mu)² / d; is = 1/√(va + eps).
	VPXORQ Z2, Z2, Z2
	MOVQ   SI, BX
	MOVQ   DX, CX
	CMPQ   AX, $8
	JNE    f64fvar
	SHRQ   $3, CX
	JZ     f64fvartail

f64fvarblk:
	ROWS8_64(BX, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	SQDEV(Z0, Z16)
	SQDEV(Z0, Z17)
	SQDEV(Z0, Z18)
	SQDEV(Z0, Z19)
	SQDEV(Z0, Z4)
	SQDEV(Z0, Z5)
	SQDEV(Z0, Z6)
	SQDEV(Z0, Z7)
	SUM8(Z2, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	ADDQ $64, BX
	DECQ CX
	JNZ  f64fvarblk

f64fvartail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   f64fvardone

f64fvar:
	GATHER64(BX, Z1)
	VSUBPD Z0, Z1, Z1
	VMULPD Z1, Z1, Z1
	VADDPD Z1, Z2, Z2
	ADDQ   $8, BX
	DECQ   CX
	JNZ    f64fvar

f64fvardone:
	VDIVPD  Z24, Z2, Z2
	VADDPD  Z20, Z2, Z2
	VSQRTPD Z2, Z2
	VDIVPD  Z2, Z25, Z3
	VMOVUPD Z3, K3, (R11)

	// Each row: lanes are columns, mu and is broadcast from the row's lane.
	VPXORQ Z26, Z26, Z26
	MOVQ   AX, R13

f64frow:
	VPERMPD Z0, Z26, Z4
	VPERMPD Z3, Z26, Z5
	XORQ    R14, R14
	MOVQ    DX, CX
	SHRQ    $3, CX
	JZ      f64ftail

f64fcol:
	VMOVUPD (SI)(R14*1), Z6
	VSUBPD  Z4, Z6, Z6          // x − mu
	VMULPD  Z5, Z6, Z6          // xh = (…)·is
	VMOVUPD Z6, (R8)(R14*1)
	VMULPD  (R9)(R14*1), Z6, Z7 // gain·xh
	VADDPD  (R10)(R14*1), Z7, Z7 // + bias
	VMOVUPD Z7, (DI)(R14*1)
	ADDQ    $64, R14
	DECQ    CX
	JNZ     f64fcol

f64ftail:
	KORTESTW  K2, K2
	JZ        f64fnext
	VMOVUPD.Z (SI)(R14*1), K2, Z6
	VSUBPD    Z4, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VMOVUPD   Z6, K2, (R8)(R14*1)
	VMOVUPD.Z (R9)(R14*1), K2, Z8
	VMULPD    Z8, Z6, Z7
	VMOVUPD.Z (R10)(R14*1), K2, Z8
	VADDPD    Z8, Z7, Z7
	VMOVUPD   Z7, K2, (DI)(R14*1)

f64fnext:
	MOVQ   DX, BX
	SHLQ   $3, BX
	ADDQ   BX, SI
	ADDQ   BX, R8
	ADDQ   BX, DI
	VPADDQ Z27, Z26, Z26
	DECQ   R13
	JNZ    f64frow
	ADDQ   $64, R11
	SUBQ   $8, R12
	JG     f64fblock
	VZEROUPPER
	RET

// func lnFwd8f32(out, xhat, x, gain, bias, invStd unsafe.Pointer, n, d int, eps float64)
TEXT ·lnFwd8f32(SB), NOSPLIT, $0-72
	MOVQ         out+0(FP), DI
	MOVQ         xhat+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         gain+24(FP), R9
	MOVQ         bias+32(FP), R10
	MOVQ         invStd+40(FP), R11
	MOVQ         n+48(FP), R12
	MOVQ         d+56(FP), DX
	VBROADCASTSD eps+64(FP), Z20
	ROWS_SETUP

f32fblock:
	BLOCK_ROWS
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, BX
	MOVQ   DX, CX
	CMPQ   AX, $8
	JNE    f32fmean // a partial block gathers every column
	SHRQ   $3, CX
	JZ     f32fmeantail

f32fmeanblk:
	ROWS8_32(BX, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	SUM8(Z0, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	ADDQ $32, BX
	DECQ CX
	JNZ  f32fmeanblk

f32fmeantail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   f32fmeandone

f32fmean:
	GATHER32(BX, Y1, Z1)
	VADDPD Z1, Z0, Z0
	ADDQ   $4, BX
	DECQ   CX
	JNZ    f32fmean

f32fmeandone:
	VDIVPD Z24, Z0, Z0
	VPXORQ Z2, Z2, Z2
	MOVQ   SI, BX
	MOVQ   DX, CX
	CMPQ   AX, $8
	JNE    f32fvar
	SHRQ   $3, CX
	JZ     f32fvartail

f32fvarblk:
	ROWS8_32(BX, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	SQDEV(Z0, Z16)
	SQDEV(Z0, Z17)
	SQDEV(Z0, Z18)
	SQDEV(Z0, Z19)
	SQDEV(Z0, Z4)
	SQDEV(Z0, Z5)
	SQDEV(Z0, Z6)
	SQDEV(Z0, Z7)
	SUM8(Z2, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	ADDQ $32, BX
	DECQ CX
	JNZ  f32fvarblk

f32fvartail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   f32fvardone

f32fvar:
	GATHER32(BX, Y1, Z1)
	VSUBPD Z0, Z1, Z1
	VMULPD Z1, Z1, Z1
	VADDPD Z1, Z2, Z2
	ADDQ   $4, BX
	DECQ   CX
	JNZ    f32fvar

f32fvardone:
	VDIVPD  Z24, Z2, Z2
	VADDPD  Z20, Z2, Z2
	VSQRTPD Z2, Z2
	VDIVPD  Z2, Z25, Z3
	VMOVUPD Z3, K3, (R11)
	VPXORQ  Z26, Z26, Z26
	MOVQ    AX, R13

f32frow:
	VPERMPD Z0, Z26, Z4
	VPERMPD Z3, Z26, Z5
	XORQ    R14, R14
	MOVQ    DX, CX
	SHRQ    $3, CX
	JZ      f32ftail

f32fcol:
	VCVTPS2PD (SI)(R14*1), Z6
	VSUBPD    Z4, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VCVTPD2PS Z6, Y9
	VMOVUPS   Y9, (R8)(R14*1)
	VCVTPS2PD (R9)(R14*1), Z8
	VMULPD    Z8, Z6, Z7
	VCVTPS2PD (R10)(R14*1), Z8
	VADDPD    Z8, Z7, Z7
	VCVTPD2PS Z7, Y9
	VMOVUPS   Y9, (DI)(R14*1)
	ADDQ      $32, R14
	DECQ      CX
	JNZ       f32fcol

f32ftail:
	KORTESTW  K2, K2
	JZ        f32fnext
	VMOVUPS.Z (SI)(R14*1), K2, Z6
	VCVTPS2PD Y6, Z6
	VSUBPD    Z4, Z6, Z6
	VMULPD    Z5, Z6, Z6
	VCVTPD2PS Z6, Y9
	VMOVUPS   Z9, K2, (R8)(R14*1)
	VMOVUPS.Z (R9)(R14*1), K2, Z8
	VCVTPS2PD Y8, Z8
	VMULPD    Z8, Z6, Z7
	VMOVUPS.Z (R10)(R14*1), K2, Z8
	VCVTPS2PD Y8, Z8
	VADDPD    Z8, Z7, Z7
	VCVTPD2PS Z7, Y9
	VMOVUPS   Z9, K2, (DI)(R14*1)

f32fnext:
	MOVQ   DX, BX
	SHLQ   $2, BX
	ADDQ   BX, SI
	ADDQ   BX, R8
	ADDQ   BX, DI
	VPADDQ Z27, Z26, Z26
	DECQ   R13
	JNZ    f32frow
	ADDQ   $64, R11
	SUBQ   $8, R12
	JG     f32fblock
	VZEROUPPER
	RET

// func lnBwd8f64(out, dy, xhat, gainB, gGrad, bGrad, invStd unsafe.Pointer, n, d int)
TEXT ·lnBwd8f64(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), R8
	MOVQ gainB+24(FP), R9
	MOVQ n+56(FP), R12
	MOVQ d+64(FP), DX
	ROWS_SETUP

	// dγ and dβ: lanes are columns, rows summed in ascending order from
	// +0, then one add into each gradient.
	MOVQ DX, R10
	SHLQ $3, R10 // row stride
	MOVQ DX, AX  // columns left
	XORQ R14, R14

f64bfold:
	FOLD_MASK(f64bfoldm)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	LEAQ   (SI)(R14*1), BX
	LEAQ   (R8)(R14*1), R13
	MOVQ   R12, CX

f64bfoldrow:
	VMOVUPD.Z (BX), K5, Z2
	VMOVUPD.Z (R13), K5, Z3
	VMULPD    Z3, Z2, Z3 // dy·xhat
	VADDPD    Z3, Z0, Z0
	VADDPD    Z2, Z1, Z1
	ADDQ      R10, BX
	ADDQ      R10, R13
	DECQ      CX
	JNZ       f64bfoldrow
	MOVQ      gGrad+32(FP), CX
	VMOVUPD.Z (CX)(R14*1), K5, Z4
	VADDPD    Z0, Z4, Z4
	VMOVUPD   Z4, K5, (CX)(R14*1)
	MOVQ      bGrad+40(FP), CX
	VMOVUPD.Z (CX)(R14*1), K5, Z4
	VADDPD    Z1, Z4, Z4
	VMOVUPD   Z4, K5, (CX)(R14*1)
	ADDQ      $64, R14
	SUBQ      $8, AX
	JG        f64bfold

	MOVQ invStd+48(FP), R11

f64bblock:
	BLOCK_ROWS
	// m1 = Σⱼ dy·gain / d and m2 = Σⱼ dy·gain·xhat / d, per row lane.
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   SI, BX
	MOVQ   R8, R13
	MOVQ   R9, R10
	MOVQ   DX, CX
	CMPQ   AX, $8
	JNE    f64bstat // a partial block gathers every column
	SHRQ   $3, CX
	JZ     f64bstattail

f64bstatblk:
	// dx = dy·gain column by column, summed into m1 in ascending j; then
	// dx·xhat into m2.
	ROWS8_64(BX, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	MULBY64(0, R10, Z16)
	MULBY64(8, R10, Z17)
	MULBY64(16, R10, Z18)
	MULBY64(24, R10, Z19)
	MULBY64(32, R10, Z4)
	MULBY64(40, R10, Z5)
	MULBY64(48, R10, Z6)
	MULBY64(56, R10, Z7)
	SUM8(Z0, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	ROWS8_64(R13, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z20, Z21, Z22, Z25, Z28, Z29, Z30, Z31)
	PRODSUM(Z1, Z16, Z20)
	PRODSUM(Z1, Z17, Z21)
	PRODSUM(Z1, Z18, Z22)
	PRODSUM(Z1, Z19, Z25)
	PRODSUM(Z1, Z4, Z28)
	PRODSUM(Z1, Z5, Z29)
	PRODSUM(Z1, Z6, Z30)
	PRODSUM(Z1, Z7, Z31)
	ADDQ $64, BX
	ADDQ $64, R13
	ADDQ $64, R10
	DECQ CX
	JNZ  f64bstatblk

f64bstattail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   f64bstatdone

f64bstat:
	GATHER64(BX, Z2)
	GATHER64(R13, Z3)
	VBROADCASTSD (R10), Z4
	VMULPD       Z4, Z2, Z2 // dx = dy·gain
	VADDPD       Z2, Z0, Z0
	VMULPD       Z3, Z2, Z3 // dx·xhat
	VADDPD       Z3, Z1, Z1
	ADDQ         $8, BX
	ADDQ         $8, R13
	ADDQ         $8, R10
	DECQ         CX
	JNZ          f64bstat

f64bstatdone:
	VDIVPD       Z24, Z0, Z0
	VDIVPD       Z24, Z1, Z1
	VMOVUPD.Z    (R11), K3, Z5
	VPXORQ       Z26, Z26, Z26
	MOVQ         AX, R13

f64brow:
	VPERMPD Z0, Z26, Z6 // m1
	VPERMPD Z1, Z26, Z7 // m2
	VPERMPD Z5, Z26, Z8 // is
	XORQ    R14, R14
	MOVQ    DX, CX
	SHRQ    $3, CX
	JZ      f64btail

f64bcol:
	VMOVUPD (SI)(R14*1), Z9
	VMULPD  (R9)(R14*1), Z9, Z9 // dx = dy·gain
	VSUBPD  Z6, Z9, Z9          // dx − m1
	VMOVUPD (R8)(R14*1), Z10
	VMULPD  Z7, Z10, Z10        // xh·m2
	VSUBPD  Z10, Z9, Z9         // (dx − m1) − xh·m2
	VMULPD  Z9, Z8, Z9          // is·(…)
	VMOVUPD Z9, (DI)(R14*1)
	ADDQ    $64, R14
	DECQ    CX
	JNZ     f64bcol

f64btail:
	KORTESTW  K2, K2
	JZ        f64bnext
	VMOVUPD.Z (SI)(R14*1), K2, Z9
	VMOVUPD.Z (R9)(R14*1), K2, Z11
	VMULPD    Z11, Z9, Z9
	VSUBPD    Z6, Z9, Z9
	VMOVUPD.Z (R8)(R14*1), K2, Z10
	VMULPD    Z7, Z10, Z10
	VSUBPD    Z10, Z9, Z9
	VMULPD    Z9, Z8, Z9
	VMOVUPD   Z9, K2, (DI)(R14*1)

f64bnext:
	MOVQ   DX, BX
	SHLQ   $3, BX
	ADDQ   BX, SI
	ADDQ   BX, R8
	ADDQ   BX, DI
	VPADDQ Z27, Z26, Z26
	DECQ   R13
	JNZ    f64brow
	ADDQ   $64, R11
	SUBQ   $8, R12
	JG     f64bblock
	VZEROUPPER
	RET

// func lnBwd8f32(out, dy, xhat, gainB, gGrad, bGrad, invStd unsafe.Pointer, n, d int)
TEXT ·lnBwd8f32(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), R8
	MOVQ gainB+24(FP), R9
	MOVQ n+56(FP), R12
	MOVQ d+64(FP), DX
	ROWS_SETUP
	MOVQ DX, R10
	SHLQ $2, R10
	MOVQ DX, AX
	XORQ R14, R14

f32bfold:
	FOLD_MASK(f32bfoldm)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	LEAQ   (SI)(R14*1), BX
	LEAQ   (R8)(R14*1), R13
	MOVQ   R12, CX

f32bfoldrow:
	VMOVUPS.Z (BX), K5, Z2
	VCVTPS2PD Y2, Z2
	VMOVUPS.Z (R13), K5, Z3
	VCVTPS2PD Y3, Z3
	VMULPD    Z3, Z2, Z3
	VADDPD    Z3, Z0, Z0
	VADDPD    Z2, Z1, Z1
	ADDQ      R10, BX
	ADDQ      R10, R13
	DECQ      CX
	JNZ       f32bfoldrow
	MOVQ      gGrad+32(FP), CX
	VMOVUPS.Z (CX)(R14*1), K5, Z4
	VCVTPD2PS Z0, Y0 // T(sg)
	VADDPS    Z0, Z4, Z4
	VMOVUPS   Z4, K5, (CX)(R14*1)
	MOVQ      bGrad+40(FP), CX
	VMOVUPS.Z (CX)(R14*1), K5, Z4
	VCVTPD2PS Z1, Y1 // T(sb)
	VADDPS    Z1, Z4, Z4
	VMOVUPS   Z4, K5, (CX)(R14*1)
	ADDQ      $32, R14
	SUBQ      $8, AX
	JG        f32bfold

	MOVQ invStd+48(FP), R11

f32bblock:
	BLOCK_ROWS
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   SI, BX
	MOVQ   R8, R13
	MOVQ   R9, R10
	MOVQ   DX, CX
	CMPQ   AX, $8
	JNE    f32bstat // a partial block gathers every column
	SHRQ   $3, CX
	JZ     f32bstattail

f32bstatblk:
	// dx = dy·gain column by column, summed into m1 in ascending j; then
	// dx·xhat into m2.
	ROWS8_32(BX, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	MULBY32(0, R10, Z16)
	MULBY32(4, R10, Z17)
	MULBY32(8, R10, Z18)
	MULBY32(12, R10, Z19)
	MULBY32(16, R10, Z4)
	MULBY32(20, R10, Z5)
	MULBY32(24, R10, Z6)
	MULBY32(28, R10, Z7)
	SUM8(Z0, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	ROWS8_32(R13, R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z20, Z21, Z22, Z25, Z28, Z29, Z30, Z31)
	PRODSUM(Z1, Z16, Z20)
	PRODSUM(Z1, Z17, Z21)
	PRODSUM(Z1, Z18, Z22)
	PRODSUM(Z1, Z19, Z25)
	PRODSUM(Z1, Z4, Z28)
	PRODSUM(Z1, Z5, Z29)
	PRODSUM(Z1, Z6, Z30)
	PRODSUM(Z1, Z7, Z31)
	ADDQ $32, BX
	ADDQ $32, R13
	ADDQ $32, R10
	DECQ CX
	JNZ  f32bstatblk

f32bstattail:
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   f32bstatdone

f32bstat:
	GATHER32(BX, Y2, Z2)
	GATHER32(R13, Y3, Z3)
	VCVTSS2SD    (R10), X4, X4
	VBROADCASTSD X4, Z4
	VMULPD       Z4, Z2, Z2
	VADDPD       Z2, Z0, Z0
	VMULPD       Z3, Z2, Z3
	VADDPD       Z3, Z1, Z1
	ADDQ         $4, BX
	ADDQ         $4, R13
	ADDQ         $4, R10
	DECQ         CX
	JNZ          f32bstat

f32bstatdone:
	VDIVPD       Z24, Z0, Z0
	VDIVPD       Z24, Z1, Z1
	VMOVUPD.Z    (R11), K3, Z5
	VPXORQ       Z26, Z26, Z26
	MOVQ         AX, R13

f32brow:
	VPERMPD Z0, Z26, Z6
	VPERMPD Z1, Z26, Z7
	VPERMPD Z5, Z26, Z8
	XORQ    R14, R14
	MOVQ    DX, CX
	SHRQ    $3, CX
	JZ      f32btail

f32bcol:
	VCVTPS2PD (SI)(R14*1), Z9
	VCVTPS2PD (R9)(R14*1), Z11
	VMULPD    Z11, Z9, Z9
	VSUBPD    Z6, Z9, Z9
	VCVTPS2PD (R8)(R14*1), Z10
	VMULPD    Z7, Z10, Z10
	VSUBPD    Z10, Z9, Z9
	VMULPD    Z9, Z8, Z9
	VCVTPD2PS Z9, Y9
	VMOVUPS   Y9, (DI)(R14*1)
	ADDQ      $32, R14
	DECQ      CX
	JNZ       f32bcol

f32btail:
	KORTESTW  K2, K2
	JZ        f32bnext
	VMOVUPS.Z (SI)(R14*1), K2, Z9
	VCVTPS2PD Y9, Z9
	VMOVUPS.Z (R9)(R14*1), K2, Z11
	VCVTPS2PD Y11, Z11
	VMULPD    Z11, Z9, Z9
	VSUBPD    Z6, Z9, Z9
	VMOVUPS.Z (R8)(R14*1), K2, Z10
	VCVTPS2PD Y10, Z10
	VMULPD    Z7, Z10, Z10
	VSUBPD    Z10, Z9, Z9
	VMULPD    Z9, Z8, Z9
	VCVTPD2PS Z9, Y9
	VMOVUPS   Z9, K2, (DI)(R14*1)

f32bnext:
	MOVQ   DX, BX
	SHLQ   $2, BX
	ADDQ   BX, SI
	ADDQ   BX, R8
	ADDQ   BX, DI
	VPADDQ Z27, Z26, Z26
	DECQ   R13
	JNZ    f32brow
	ADDQ   $64, R11
	SUBQ   $8, R12
	JG     f32bblock
	VZEROUPPER
	RET

// func reluFwd8f64(out, x unsafe.Pointer, n int)
TEXT ·reluFwd8f64(SB), NOSPLIT, $0-24
	MOVQ   out+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	VPXORQ Z0, Z0, Z0

relu64loop:
	VMOVUPD (SI), Z1
	VMAXPD  Z0, Z1, Z1 // Intel: VMAXPD z1, z1(x), z0(+0)
	VMOVUPD Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     relu64loop
	VZEROUPPER
	RET

// func reluFwd16f32(out, x unsafe.Pointer, n int)
TEXT ·reluFwd16f32(SB), NOSPLIT, $0-24
	MOVQ   out+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $4, CX
	VPXORQ Z0, Z0, Z0

relu32loop:
	VMOVUPS (SI), Z1
	VMAXPS  Z0, Z1, Z1 // Intel: VMAXPS z1, z1(x), z0(+0)
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     relu32loop
	VZEROUPPER
	RET

// func reluBwd8f64(out, dy, x unsafe.Pointer, n int)
TEXT ·reluBwd8f64(SB), NOSPLIT, $0-32
	MOVQ   out+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   x+16(FP), SI
	MOVQ   n+24(FP), CX
	SHRQ   $3, CX
	VPXORQ Z0, Z0, Z0

drelu64loop:
	VMOVUPD   (SI), Z1
	VCMPPD    $0x1E, Z0, Z1, K1 // x > +0, ordered
	VMOVUPD.Z (DX), K1, Z2      // dy there, +0 elsewhere
	VMOVUPD   Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	DECQ      CX
	JNZ       drelu64loop
	VZEROUPPER
	RET

// func reluBwd16f32(out, dy, x unsafe.Pointer, n int)
TEXT ·reluBwd16f32(SB), NOSPLIT, $0-32
	MOVQ   out+0(FP), DI
	MOVQ   dy+8(FP), DX
	MOVQ   x+16(FP), SI
	MOVQ   n+24(FP), CX
	SHRQ   $4, CX
	VPXORQ Z0, Z0, Z0

drelu32loop:
	VMOVUPS   (SI), Z1
	VCMPPS    $0x1E, Z0, Z1, K1
	VMOVUPS.Z (DX), K1, Z2
	VMOVUPS   Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	DECQ      CX
	JNZ       drelu32loop
	VZEROUPPER
	RET

// func add8f64(out, a, b unsafe.Pointer, n int)
TEXT ·add8f64(SB), NOSPLIT, $0-32
	FLAT_SETUP(3)

add64loop:
	VMOVUPD (SI), Z0
	VADDPD  (DX), Z0, Z0 // a + b
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     add64loop
	VZEROUPPER
	RET

// func add16f32(out, a, b unsafe.Pointer, n int)
TEXT ·add16f32(SB), NOSPLIT, $0-32
	FLAT_SETUP(4)

add32loop:
	VMOVUPS (SI), Z0
	VADDPS  (DX), Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     add32loop
	VZEROUPPER
	RET

// func addBias8f64(out, b unsafe.Pointer, rows, cols int)
TEXT ·addBias8f64(SB), NOSPLIT, $0-32
	BIAS_SETUP(3, 7, 3)

bias64row:
	XORQ R14, R14
	MOVQ DX, CX
	TESTQ CX, CX
	JZ   bias64tail

bias64col:
	VMOVUPD (DI)(R14*1), Z0
	VADDPD  (SI)(R14*1), Z0, Z0 // out + b
	VMOVUPD Z0, (DI)(R14*1)
	ADDQ    $64, R14
	DECQ    CX
	JNZ     bias64col

bias64tail:
	KORTESTW  K2, K2
	JZ        bias64next
	VMOVUPD.Z (DI)(R14*1), K2, Z0
	VMOVUPD.Z (SI)(R14*1), K2, Z1
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K2, (DI)(R14*1)

bias64next:
	ADDQ R10, DI
	DECQ R12
	JNZ  bias64row
	VZEROUPPER
	RET

// func addBias16f32(out, b unsafe.Pointer, rows, cols int)
TEXT ·addBias16f32(SB), NOSPLIT, $0-32
	BIAS_SETUP(4, 15, 2)

bias32row:
	XORQ  R14, R14
	MOVQ  DX, CX
	TESTQ CX, CX
	JZ    bias32tail

bias32col:
	VMOVUPS (DI)(R14*1), Z0
	VADDPS  (SI)(R14*1), Z0, Z0
	VMOVUPS Z0, (DI)(R14*1)
	ADDQ    $64, R14
	DECQ    CX
	JNZ     bias32col

bias32tail:
	KORTESTW  K2, K2
	JZ        bias32next
	VMOVUPS.Z (DI)(R14*1), K2, Z0
	VMOVUPS.Z (SI)(R14*1), K2, Z1
	VADDPS    Z1, Z0, Z0
	VMOVUPS   Z0, K2, (DI)(R14*1)

bias32next:
	ADDQ R10, DI
	DECQ R12
	JNZ  bias32row
	VZEROUPPER
	RET

// func foldCols8f64(grad, dy unsafe.Pointer, rows, cols int)
TEXT ·foldCols8f64(SB), NOSPLIT, $0-32
	FOLD_SETUP(7, 0xFF, 3)

fold64blk:
	KMOVW K4, K5
	CMPQ  AX, $8
	JGE   fold64full
	KMOVW K2, K5

fold64full:
	VPXORQ Z0, Z0, Z0
	LEAQ   (SI)(R14*1), BX
	MOVQ   R12, CX

fold64row:
	VMOVUPD.Z (BX), K5, Z1
	VADDPD    Z1, Z0, Z0 // s + dy
	ADDQ      R10, BX
	DECQ      CX
	JNZ       fold64row
	VMOVUPD.Z (DI)(R14*1), K5, Z1
	VADDPD    Z0, Z1, Z1 // g + s
	VMOVUPD   Z1, K5, (DI)(R14*1)
	ADDQ      $64, R14
	SUBQ      $8, AX
	JG        fold64blk
	VZEROUPPER
	RET

// func foldCols16f32(grad, dy unsafe.Pointer, rows, cols int)
TEXT ·foldCols16f32(SB), NOSPLIT, $0-32
	FOLD_SETUP(15, 0xFFFF, 2)

fold32blk:
	KMOVW K4, K5
	CMPQ  AX, $16
	JGE   fold32full
	KMOVW K2, K5

fold32full:
	VPXORQ Z0, Z0, Z0
	LEAQ   (SI)(R14*1), BX
	MOVQ   R12, CX

fold32row:
	VMOVUPS.Z (BX), K5, Z1
	VADDPS    Z1, Z0, Z0
	ADDQ      R10, BX
	DECQ      CX
	JNZ       fold32row
	VMOVUPS.Z (DI)(R14*1), K5, Z1
	VADDPS    Z0, Z1, Z1
	VMOVUPS   Z1, K5, (DI)(R14*1)
	ADDQ      $64, R14
	SUBQ      $16, AX
	JG        fold32blk
	VZEROUPPER
	RET
