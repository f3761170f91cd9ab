//go:build amd64

#include "textflag.h"

// The GELU kernels: eight lanes of gelu.go's Go twin in ZMM registers
// (AVX512F). Every lane performs geluAt's (or geluGradAt's) float64
// operations in the twin's order, each one rounded: separate VMULPD,
// VADDPD, VSUBPD and VDIVPD (no FMA); int(q) of the exp's reduction is
// VRNDSCALEPD with imm 0x0B (truncate); the scale by 2^k is VSCALEFPD,
// exact because k and the result are normal; and the twin's two branches
// (x < expLo, u < 0) are lane masks.

DATA geluK<>+0x00(SB)/8, $0x3fa6e4e26d4801f7 // geluA  0.044715
DATA geluK<>+0x08(SB)/8, $0x3fe9884533d43651 // geluC  √(2/π)
DATA geluK<>+0x10(SB)/8, $0x7fffffffffffffff // |·| mask
DATA geluK<>+0x18(SB)/8, $0xc000000000000000 // −2
DATA geluK<>+0x20(SB)/8, $0xc086200000000000 // expLo  −708
DATA geluK<>+0x28(SB)/8, $0x3ff71547652b82fe // log2e
DATA geluK<>+0x30(SB)/8, $0x3fe0000000000000 // 0.5
DATA geluK<>+0x38(SB)/8, $0x3fe62e42fee00000 // ln2Hi
DATA geluK<>+0x40(SB)/8, $0x3dea39ef35793c76 // ln2Lo
DATA geluK<>+0x48(SB)/8, $0x3e66376972bea4d0 // p5
DATA geluK<>+0x50(SB)/8, $0xbebbbd41c5d26bf1 // p4
DATA geluK<>+0x58(SB)/8, $0x3f11566aaf25de2c // p3
DATA geluK<>+0x60(SB)/8, $0xbf66c16c16bebd93 // p2
DATA geluK<>+0x68(SB)/8, $0x3fc5555555555555 // p1
DATA geluK<>+0x70(SB)/8, $0x3ff0000000000000 // 1
DATA geluK<>+0x78(SB)/8, $0x4000000000000000 // 2
DATA geluK<>+0x80(SB)/8, $0x3fc12ba9d1f60179 // geluA3 0.134145
GLOBL geluK<>(SB), RODATA|NOPTR, $136

// GELU_CONSTS broadcasts the constants: Z11 = 0, Z15 = geluA3, Z16 =
// geluA, Z17 = geluC, Z18 = |·| mask, Z19 = −2, Z20 = expLo, Z21 = log2e,
// Z22 = 0.5, Z23 = ln2Hi, Z24 = ln2Lo, Z25–Z29 = p5…p1, Z30 = 1, Z31 = 2.
#define GELU_CONSTS \
	VPXORQ       Z11, Z11, Z11; \
	VBROADCASTSD geluK<>+0x80(SB), Z15; \
	VBROADCASTSD geluK<>+0x00(SB), Z16; \
	VBROADCASTSD geluK<>+0x08(SB), Z17; \
	VPBROADCASTQ geluK<>+0x10(SB), Z18; \
	VBROADCASTSD geluK<>+0x18(SB), Z19; \
	VBROADCASTSD geluK<>+0x20(SB), Z20; \
	VBROADCASTSD geluK<>+0x28(SB), Z21; \
	VBROADCASTSD geluK<>+0x30(SB), Z22; \
	VBROADCASTSD geluK<>+0x38(SB), Z23; \
	VBROADCASTSD geluK<>+0x40(SB), Z24; \
	VBROADCASTSD geluK<>+0x48(SB), Z25; \
	VBROADCASTSD geluK<>+0x50(SB), Z26; \
	VBROADCASTSD geluK<>+0x58(SB), Z27; \
	VBROADCASTSD geluK<>+0x60(SB), Z28; \
	VBROADCASTSD geluK<>+0x68(SB), Z29; \
	VBROADCASTSD geluK<>+0x70(SB), Z30; \
	VBROADCASTSD geluK<>+0x78(SB), Z31

// GELU_SIGMA takes v in Z0 and leaves σ(2u) in Z12: geluU, then
// sigmoid2 with expNonPos inline. Clobbers Z1–Z10, K1 and K2.
#define GELU_SIGMA \
	VMULPD      Z16, Z0, Z1;  /* geluA·v */ \
	VMULPD      Z0, Z1, Z1;   /* ·v */ \
	VMULPD      Z0, Z1, Z1;   /* ·v */ \
	VADDPD      Z1, Z0, Z1;   /* v + geluA·v³ */ \
	VMULPD      Z17, Z1, Z1;  /* u = geluC·(…) */ \
	VPANDQ      Z18, Z1, Z2;  /* |u| */ \
	VMULPD      Z19, Z2, Z2;  /* x = −2|u| */ \
	VCMPPD      $1, Z20, Z2, K1; /* x < expLo */ \
	VMULPD      Z21, Z2, Z3;  /* log2e·x */ \
	VSUBPD      Z22, Z3, Z3;  /* − 0.5 */ \
	VRNDSCALEPD $0x0B, Z3, Z3; /* k = int(…) */ \
	VMULPD      Z23, Z3, Z4;  /* k·ln2Hi */ \
	VSUBPD      Z4, Z2, Z4;   /* hi = x − k·ln2Hi */ \
	VMULPD      Z24, Z3, Z5;  /* lo = k·ln2Lo */ \
	VSUBPD      Z5, Z4, Z6;   /* r = hi − lo */ \
	VMULPD      Z6, Z6, Z7;   /* t = r·r */ \
	VMULPD      Z25, Z7, Z8;  /* t·p5 */ \
	VADDPD      Z26, Z8, Z8;  /* p4 + … */ \
	VMULPD      Z8, Z7, Z8; \
	VADDPD      Z27, Z8, Z8;  /* p3 + … */ \
	VMULPD      Z8, Z7, Z8; \
	VADDPD      Z28, Z8, Z8;  /* p2 + … */ \
	VMULPD      Z8, Z7, Z8; \
	VADDPD      Z29, Z8, Z8;  /* p1 + … */ \
	VMULPD      Z8, Z7, Z8; \
	VSUBPD      Z8, Z6, Z8;   /* c = r − t·(…) */ \
	VMULPD      Z8, Z6, Z9;   /* r·c */ \
	VSUBPD      Z8, Z31, Z10; /* 2 − c */ \
	VDIVPD      Z10, Z9, Z9;  /* r·c/(2−c) */ \
	VSUBPD      Z9, Z5, Z9;   /* lo − … */ \
	VSUBPD      Z4, Z9, Z9;   /* (…) − hi */ \
	VSUBPD      Z9, Z30, Z9;  /* y = 1 − (…) */ \
	VSCALEFPD   Z3, Z9, Z9;   /* e = y·2^k */ \
	VMOVAPD     Z11, K1, Z9;  /* e = 0 below expLo */ \
	VADDPD      Z30, Z9, Z10; /* 1 + e */ \
	VCMPPD      $1, Z11, Z1, K2; /* u < 0 */ \
	VMOVAPD     Z30, Z12; \
	VMOVAPD     Z9, K2, Z12;  /* 1, or e where u < 0 */ \
	VDIVPD      Z10, Z12, Z12 /* σ = (…)/(1 + e) */

// GELU_GRAD takes v in Z0 and σ in Z12 and leaves geluGradAt(v) in Z3.
// Clobbers Z2 and Z4.
#define GELU_GRAD \
	VMULPD Z15, Z0, Z2;  /* geluA3·v */ \
	VMULPD Z0, Z2, Z2;   /* ·v */ \
	VADDPD Z30, Z2, Z2;  /* 1 + … */ \
	VMULPD Z17, Z2, Z2;  /* u′ = geluC·(…) */ \
	VMULPD Z31, Z0, Z3;  /* 2v */ \
	VMULPD Z12, Z3, Z3;  /* ·σ */ \
	VSUBPD Z12, Z30, Z4; /* 1 − σ */ \
	VMULPD Z4, Z3, Z3;   /* ·(1 − σ) */ \
	VMULPD Z2, Z3, Z3;   /* ·u′ */ \
	VADDPD Z3, Z12, Z3   /* σ + … */

// func geluFwd8f64(out, x unsafe.Pointer, n int)
TEXT ·geluFwd8f64(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	GELU_CONSTS

fwd64loop:
	VMOVUPD (SI), Z0
	GELU_SIGMA
	VMULPD  Z12, Z0, Z13 // v·σ
	VMOVUPD Z13, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fwd64loop
	VZEROUPPER
	RET

// func geluFwd8f32(out, x unsafe.Pointer, n int)
TEXT ·geluFwd8f32(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	GELU_CONSTS

fwd32loop:
	VCVTPS2PD (SI), Z0
	GELU_SIGMA
	VMULPD    Z12, Z0, Z13 // v·σ
	VCVTPD2PS Z13, Y13
	VMOVUPS   Y13, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       fwd32loop
	VZEROUPPER
	RET

// func geluBwd8f64(out, dy, x unsafe.Pointer, n int)
TEXT ·geluBwd8f64(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	GELU_CONSTS

bwd64loop:
	VMOVUPD (SI), Z0
	GELU_SIGMA
	GELU_GRAD
	VMOVUPD (DX), Z13
	VMULPD  Z3, Z13, Z13 // dy·d
	VMOVUPD Z13, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     bwd64loop
	VZEROUPPER
	RET

// func geluBwd8f32(out, dy, x unsafe.Pointer, n int)
TEXT ·geluBwd8f32(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	GELU_CONSTS

bwd32loop:
	VCVTPS2PD (SI), Z0
	GELU_SIGMA
	GELU_GRAD
	VCVTPS2PD (DX), Z13
	VMULPD    Z3, Z13, Z13 // dy·d
	VCVTPD2PS Z13, Y13
	VMOVUPS   Y13, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, DI
	DECQ      CX
	JNZ       bwd32loop
	VZEROUPPER
	RET
