//go:build amd64

package tensor

import "unsafe"

// haveSIMD reports whether the AVX microkernels may be used. Detected
// once at startup: the CPU must support AVX and the OS must have enabled
// YMM state (XGETBV). The kernels use only AVX1 instructions (VMULPD,
// VADDPD and memory-operand broadcasts), so AVX2 is not required.
//
// Using or not using the SIMD path never changes results: the kernels
// perform the same scalar-order multiply-then-add per output element as
// the generic fallback (no FMA, and the fallback forbids the compiler's
// fusion), so a cluster mixing AVX and non-AVX hosts still agrees bitwise.
var haveSIMD = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv()
	// XMM (bit 1) and YMM (bit 2) state must be OS-enabled.
	return eax&0x6 == 0x6
}

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(op, op2 uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// kern4x8f64 accumulates a full 4×8 float64 tile at c (row stride ldc)
// over kc steps, reading both operands where they lie: step p takes the
// four A values a[r·ars + p·aps] and the B row b[p·bps … +7]. Strides are
// in elements; bounds are pre-checked by the caller.
//
//go:noescape
func kern4x8f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int)

// kern4x8f32 is the float32 twin of kern4x8f64.
//
//go:noescape
func kern4x8f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int)

// ptr returns the base address of a non-empty slice for the assembly
// kernels.
func ptr[T Elem](s []T) unsafe.Pointer { return unsafe.Pointer(&s[0]) }
