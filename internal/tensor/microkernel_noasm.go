//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 builds always take the generic microkernel. Its products are
// bit-identical to the assembly's: every multiply-add in matmul.go is
// written acc += T(a*b), which the compiler may not fuse into an FMA.
const haveSIMD = false

func kern4x8f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int) {
	panic("tensor: SIMD kernel unavailable")
}

func kern4x8f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int) {
	panic("tensor: SIMD kernel unavailable")
}

func ptr[T Elem](s []T) unsafe.Pointer { return unsafe.Pointer(&s[0]) }
