//go:build amd64

package tensor

import "unsafe"

// haveSIMD reports whether the 4×8 AVX microkernels may be used, and
// haveAVX512 whether the 4×16 AVX-512F ones (full and masked edge), the
// eight-lane GELU kernels, the commit kernels (AdamW, T2) and the row
// kernels (LayerNorm, ReLU, the one-add row ops) may. Both are detected
// once at startup, with no option to override them:
//
//   - AVX: the CPU must support AVX and the OS must have enabled XMM and
//     YMM state (XCR0 bits 1 and 2). The 4×8 kernels use only AVX1
//     instructions (VMULP*, VADDP* and memory-operand broadcasts), so
//     AVX2 is not required.
//   - AVX-512: AVX as above, CPUID.7.0:EBX[16] (AVX512F), and the OS must
//     also have enabled opmask and ZMM state (XCR0 bits 5, 6 and 7). The
//     4×16, GELU, commit and row kernels use only AVX512F instructions on
//     ZMM and opmask registers (KMOVW, not the DQ KMOVB; VPXORD/VPXORQ,
//     not the DQ VXORPS; masked moves on ZMM only, never the VL forms on
//     YMM; the GELU kernels also VRNDSCALEPD, VSCALEFPD and the
//     float32↔float64 conversions, the row kernels the qword-indexed
//     gathers and VPERMPD).
//
// Which kernel runs never changes results: every GEMM kernel performs the
// same scalar-order multiply-then-add per output element as the generic
// fallback, and every GELU kernel lane the same float64 operations as its
// Go twin (gelu.go) — no FMA, and the Go code forbids the compiler's
// fusion — so a cluster mixing AVX-512, AVX and non-AVX hosts still agrees
// bitwise. GELU and the softmax family can promise it because they call
// neither math.Exp nor math.Tanh, whose amd64 assembly takes an FMA path
// on FMA hosts (DESIGN §12 lists the math calls still outside it).
var haveSIMD, haveAVX512 = detectAVX()

func detectAVX() (avx, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false, false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avxBit = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avxBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	// XMM (bit 1) and YMM (bit 2) state must be OS-enabled.
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	if maxID < 7 {
		return true, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	// Plus opmask (bit 5), upper ZMM0–15 (bit 6) and ZMM16–31 (bit 7).
	return true, ebx&avx512f != 0 && xcr0&0xE6 == 0xE6
}

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(op, op2 uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// kern4x8f64 runs a full 4×8 float64 tile at c (row stride ldc) over kc
// steps in C mode mode, reading both operands where they lie: step p
// takes the four A values a[r·ars + p·aps] and the B row b[p·bps … +7].
// Strides are in elements; bounds are pre-checked by the caller.
//
//go:noescape
func kern4x8f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)

// kern4x8f32 is the float32 twin of kern4x8f64.
//
//go:noescape
func kern4x8f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)

// kern4x16f64 is kern4x8f64 on a 4×16 tile in ZMM registers (AVX512F):
// step p reads the B row b[p·bps … +15].
//
//go:noescape
func kern4x16f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)

// kern4x16f32 is the float32 twin of kern4x16f64.
//
//go:noescape
func kern4x16f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode)

// kern4x16mf64 is kern4x16f64 on the top-left mr×nr corner of the tile
// (1 ≤ mr ≤ 4, 1 ≤ nr ≤ 16), under an opmask: it touches no element of
// C, A or B outside that corner's rows, columns and steps.
//
//go:noescape
func kern4x16mf64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode, mr, nr int)

// kern4x16mf32 is the float32 twin of kern4x16mf64.
//
//go:noescape
func kern4x16mf32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode, mr, nr int)

// geluFwd8f64 writes out[i] = geluAt(x[i]) for i < n, eight lanes at a
// time in ZMM registers (AVX512F), performing geluAt's float64 operations
// in its order with no FMA (gelu_amd64.s). n is a positive multiple of 8;
// bounds are pre-checked by the caller.
//
//go:noescape
func geluFwd8f64(out, x unsafe.Pointer, n int)

// geluFwd8f32 is geluFwd8f64 over float32 storage: each lane widens to
// float64, and the result rounds once at the store.
//
//go:noescape
func geluFwd8f32(out, x unsafe.Pointer, n int)

// geluBwd8f64 writes out[i] = dy[i]·geluGradAt(x[i]) for i < n, as
// geluFwd8f64 does geluAt.
//
//go:noescape
func geluBwd8f64(out, dy, x unsafe.Pointer, n int)

// geluBwd8f32 is the float32 twin of geluBwd8f64.
//
//go:noescape
func geluBwd8f32(out, dy, x unsafe.Pointer, n int)

// adamw8f64 applies adamwStep to w, grad, m, v[0:n], eight float64 lanes at
// a time in ZMM registers (AVX512F), performing the twin's operations in
// its order with no FMA (commit_amd64.s). n is a positive multiple of 8;
// bounds are pre-checked by the caller.
//
//go:noescape
func adamw8f64(w, grad, m, v unsafe.Pointer, n int, k *adamwConsts)

// adamw8f32 is adamw8f64 over float32 storage: each lane widens to
// float64, and each store rounds once.
//
//go:noescape
func adamw8f32(w, grad, m, v unsafe.Pointer, n int, k *adamwConsts)

// t2x8f64 applies t2Update to d, c, cur, prev[0:n] with omg = 1 − γ,
// eight float64 lanes at a time, as adamw8f64 does adamwStep.
//
//go:noescape
func t2x8f64(d, c, cur, prev unsafe.Pointer, n int, gamma, omg, tau float64)

// t2x16f32 is t2x8f64 in float32, sixteen lanes at a time; n is a
// positive multiple of 16.
//
//go:noescape
func t2x16f32(d, c, cur, prev unsafe.Pointer, n int, gamma, omg, tau float32)

// lnFwd8f64 runs lnFwd over all n rows of d columns (n, d ≥ 1) in ZMM
// registers (AVX512F): the row statistics one float64 lane per row, eight
// rows at a time, the rest one lane per column, performing the twin's
// float64 operations in its order with no FMA (rows_amd64.s). Bounds are
// pre-checked by the caller.
//
//go:noescape
func lnFwd8f64(out, xhat, x, gain, bias, invStd unsafe.Pointer, n, d int, eps float64)

// lnFwd8f32 is lnFwd8f64 over float32 storage: each value widens to
// float64, and each store rounds once.
//
//go:noescape
func lnFwd8f32(out, xhat, x, gain, bias, invStd unsafe.Pointer, n, d int, eps float64)

// lnBwd8f64 runs lnBwd over all n rows of d columns (n, d ≥ 1), as
// lnFwd8f64 does lnFwd: dγ and dβ one lane per column, m1 and m2 one lane
// per row.
//
//go:noescape
func lnBwd8f64(out, dy, xhat, gainB, gGrad, bGrad, invStd unsafe.Pointer, n, d int)

// lnBwd8f32 is the float32 twin of lnBwd8f64.
//
//go:noescape
func lnBwd8f32(out, dy, xhat, gainB, gGrad, bGrad, invStd unsafe.Pointer, n, d int)

// reluFwd8f64 runs reluFwd over n elements, n a positive multiple of 8,
// and reluFwd16f32 over float32, n a positive multiple of 16.
//
//go:noescape
func reluFwd8f64(out, x unsafe.Pointer, n int)

//go:noescape
func reluFwd16f32(out, x unsafe.Pointer, n int)

// reluBwd8f64 and reluBwd16f32 run reluBwd as reluFwd8f64 and
// reluFwd16f32 run reluFwd.
//
//go:noescape
func reluBwd8f64(out, dy, x unsafe.Pointer, n int)

//go:noescape
func reluBwd16f32(out, dy, x unsafe.Pointer, n int)

// add8f64 and add16f32 run addRows as reluFwd8f64 and reluFwd16f32 run
// reluFwd.
//
//go:noescape
func add8f64(out, a, b unsafe.Pointer, n int)

//go:noescape
func add16f32(out, a, b unsafe.Pointer, n int)

// addBias8f64 runs addBiasRows over rows, cols ≥ 1, one lane per column,
// and addBias16f32 its float32 twin.
//
//go:noescape
func addBias8f64(out, b unsafe.Pointer, rows, cols int)

//go:noescape
func addBias16f32(out, b unsafe.Pointer, rows, cols int)

// foldCols8f64 runs foldColSums over rows, cols ≥ 1, one lane per column
// summing its rows in ascending order, and foldCols16f32 its float32
// twin.
//
//go:noescape
func foldCols8f64(grad, dy unsafe.Pointer, rows, cols int)

//go:noescape
func foldCols16f32(grad, dy unsafe.Pointer, rows, cols int)

// ptr returns the base address of a non-empty slice for the assembly
// kernels.
func ptr[T Elem](s []T) unsafe.Pointer { return unsafe.Pointer(&s[0]) }
