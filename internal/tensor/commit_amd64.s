//go:build amd64

#include "textflag.h"

// The commit kernels: lanes of commit.go's Go twins in ZMM registers
// (AVX512F). Every lane performs its twin's operations in the twin's
// order, each one rounded: separate VMULP*, VADDP*, VSUBP*, VDIVP* and
// VSQRTPD (no FMA). AdamW runs eight float64 lanes for both dtypes, the
// float32 kernel widening each load with VCVTPS2PD and narrowing each
// store with VCVTPD2PS; T2 runs in the element type, eight float64 or
// sixteen float32 lanes.

// ADAMW_CONSTS broadcasts the step's scalars from the adamwConsts at AX:
// Z16 = β₁, Z17 = 1 − β₁, Z18 = β₂, Z19 = 1 − β₂, Z20 = bc1, Z21 = bc2,
// Z22 = ε, Z23 = wd, Z24 = lr.
#define ADAMW_CONSTS \
	VBROADCASTSD 0(AX), Z16; \
	VBROADCASTSD 8(AX), Z17; \
	VBROADCASTSD 16(AX), Z18; \
	VBROADCASTSD 24(AX), Z19; \
	VBROADCASTSD 32(AX), Z20; \
	VBROADCASTSD 40(AX), Z21; \
	VBROADCASTSD 48(AX), Z22; \
	VBROADCASTSD 56(AX), Z23; \
	VBROADCASTSD 64(AX), Z24

// ADAMW_LANES takes g in Z0, m in Z1, v in Z2 and w in Z3 and leaves the
// new m in Z4, v in Z5 and w in Z3: adamwStep's element. Clobbers Z6 and
// Z7.
#define ADAMW_LANES \
	VMULPD  Z1, Z16, Z4;  /* β₁·m */ \
	VMULPD  Z0, Z17, Z6;  /* (1−β₁)·g */ \
	VADDPD  Z6, Z4, Z4;   /* mj */ \
	VMULPD  Z2, Z18, Z5;  /* β₂·v */ \
	VMULPD  Z0, Z19, Z6;  /* (1−β₂)·g */ \
	VMULPD  Z0, Z6, Z6;   /* ·g */ \
	VADDPD  Z6, Z5, Z5;   /* vj */ \
	VDIVPD  Z20, Z4, Z6;  /* mh = mj/bc1 */ \
	VDIVPD  Z21, Z5, Z7;  /* vh = vj/bc2 */ \
	VSQRTPD Z7, Z7;       /* √vh */ \
	VADDPD  Z22, Z7, Z7;  /* + ε */ \
	VDIVPD  Z7, Z6, Z6;   /* mh/(√vh + ε) */ \
	VMULPD  Z3, Z23, Z7;  /* wd·w */ \
	VADDPD  Z7, Z6, Z6;   /* … + wd·w */ \
	VMULPD  Z6, Z24, Z6;  /* lr·(…) */ \
	VSUBPD  Z6, Z3, Z3    /* w − lr·(…) */

// func adamw8f64(w, grad, m, v unsafe.Pointer, n int, k *adamwConsts)
TEXT ·adamw8f64(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	SHRQ $3, CX
	ADAMW_CONSTS

adamw64loop:
	VMOVUPD (SI), Z0
	VMOVUPD (DX), Z1
	VMOVUPD (BX), Z2
	VMOVUPD (DI), Z3
	ADAMW_LANES
	VMOVUPD Z4, (DX)
	VMOVUPD Z5, (BX)
	VMOVUPD Z3, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, BX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     adamw64loop
	VZEROUPPER
	RET

// func adamw8f32(w, grad, m, v unsafe.Pointer, n int, k *adamwConsts)
TEXT ·adamw8f32(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	SHRQ $3, CX
	ADAMW_CONSTS

adamw32loop:
	VCVTPS2PD (SI), Z0
	VCVTPS2PD (DX), Z1
	VCVTPS2PD (BX), Z2
	VCVTPS2PD (DI), Z3
	ADAMW_LANES
	VCVTPD2PS Z4, Y4
	VMOVUPS   Y4, (DX)
	VCVTPD2PS Z5, Y5
	VMOVUPS   Y5, (BX)
	VCVTPD2PS Z3, Y3
	VMOVUPS   Y3, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, BX
	ADDQ      $32, DI
	DECQ      CX
	JNZ       adamw32loop
	VZEROUPPER
	RET

// func t2x8f64(d, c, cur, prev unsafe.Pointer, n int, gamma, omg, tau float64)
//
// Z16 = γ, Z17 = 1 − γ, Z18 = τ. Per lane: d = γ·d + (1−γ)·(cur − prev),
// then c = cur − τ·d.
TEXT ·t2x8f64(SB), NOSPLIT, $0-64
	MOVQ         d+0(FP), DI
	MOVQ         c+8(FP), DX
	MOVQ         cur+16(FP), SI
	MOVQ         prev+24(FP), BX
	MOVQ         n+32(FP), CX
	SHRQ         $3, CX
	VBROADCASTSD gamma+40(FP), Z16
	VBROADCASTSD omg+48(FP), Z17
	VBROADCASTSD tau+56(FP), Z18

t2f64loop:
	VMOVUPD (SI), Z1
	VSUBPD  (BX), Z1, Z2 // cur − prev
	VMULPD  Z2, Z17, Z2  // (1−γ)·(…)
	VMULPD  (DI), Z16, Z0 // γ·d
	VADDPD  Z2, Z0, Z0   // d
	VMOVUPD Z0, (DI)
	VMULPD  Z0, Z18, Z3  // τ·d
	VSUBPD  Z3, Z1, Z3   // cur − τ·d
	VMOVUPD Z3, (DX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	ADDQ    $64, SI
	ADDQ    $64, BX
	DECQ    CX
	JNZ     t2f64loop
	VZEROUPPER
	RET

// func t2x16f32(d, c, cur, prev unsafe.Pointer, n int, gamma, omg, tau float32)
//
// t2x8f64 on sixteen float32 lanes.
TEXT ·t2x16f32(SB), NOSPLIT, $0-52
	MOVQ         d+0(FP), DI
	MOVQ         c+8(FP), DX
	MOVQ         cur+16(FP), SI
	MOVQ         prev+24(FP), BX
	MOVQ         n+32(FP), CX
	SHRQ         $4, CX
	VBROADCASTSS gamma+40(FP), Z16
	VBROADCASTSS omg+44(FP), Z17
	VBROADCASTSS tau+48(FP), Z18

t2f32loop:
	VMOVUPS (SI), Z1
	VSUBPS  (BX), Z1, Z2 // cur − prev
	VMULPS  Z2, Z17, Z2  // (1−γ)·(…)
	VMULPS  (DI), Z16, Z0 // γ·d
	VADDPS  Z2, Z0, Z0   // d
	VMOVUPS Z0, (DI)
	VMULPS  Z0, Z18, Z3  // τ·d
	VSUBPS  Z3, Z1, Z3   // cur − τ·d
	VMOVUPS Z3, (DX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	ADDQ    $64, SI
	ADDQ    $64, BX
	DECQ    CX
	JNZ     t2f32loop
	VZEROUPPER
	RET
