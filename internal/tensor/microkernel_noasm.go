//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 builds always take the generic microkernel. Its products are
// bit-identical to the assembly's: every multiply-add in matmul.go is
// written acc += T(a*b), which the compiler may not fuse into an FMA.
const haveSIMD, haveAVX512 = false, false

func kern4x8f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode) {
	panic("tensor: SIMD kernel unavailable")
}

func kern4x8f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode) {
	panic("tensor: SIMD kernel unavailable")
}

func kern4x16f64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode) {
	panic("tensor: SIMD kernel unavailable")
}

func kern4x16f32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode) {
	panic("tensor: SIMD kernel unavailable")
}

func kern4x16mf64(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode, mr, nr int) {
	panic("tensor: SIMD kernel unavailable")
}

func kern4x16mf32(c unsafe.Pointer, ldc int, a unsafe.Pointer, ars, aps int, b unsafe.Pointer, bps, kc int, mode cMode, mr, nr int) {
	panic("tensor: SIMD kernel unavailable")
}

func geluFwd8f64(out, x unsafe.Pointer, n int) { panic("tensor: SIMD kernel unavailable") }
func geluFwd8f32(out, x unsafe.Pointer, n int) { panic("tensor: SIMD kernel unavailable") }

func geluBwd8f64(out, dy, x unsafe.Pointer, n int) { panic("tensor: SIMD kernel unavailable") }
func geluBwd8f32(out, dy, x unsafe.Pointer, n int) { panic("tensor: SIMD kernel unavailable") }

func adamw8f64(w, grad, m, v unsafe.Pointer, n int, k *adamwConsts) {
	panic("tensor: SIMD kernel unavailable")
}
func adamw8f32(w, grad, m, v unsafe.Pointer, n int, k *adamwConsts) {
	panic("tensor: SIMD kernel unavailable")
}

func t2x8f64(d, c, cur, prev unsafe.Pointer, n int, gamma, omg, tau float64) {
	panic("tensor: SIMD kernel unavailable")
}
func t2x16f32(d, c, cur, prev unsafe.Pointer, n int, gamma, omg, tau float32) {
	panic("tensor: SIMD kernel unavailable")
}

func lnFwd8f64(out, xhat, x, gain, bias, invStd unsafe.Pointer, n, d int, eps float64) {
	panic("tensor: SIMD kernel unavailable")
}
func lnFwd8f32(out, xhat, x, gain, bias, invStd unsafe.Pointer, n, d int, eps float64) {
	panic("tensor: SIMD kernel unavailable")
}
func lnBwd8f64(out, dy, xhat, gainB, gGrad, bGrad, invStd unsafe.Pointer, n, d int) {
	panic("tensor: SIMD kernel unavailable")
}
func lnBwd8f32(out, dy, xhat, gainB, gGrad, bGrad, invStd unsafe.Pointer, n, d int) {
	panic("tensor: SIMD kernel unavailable")
}

func reluFwd8f64(out, x unsafe.Pointer, n int)      { panic("tensor: SIMD kernel unavailable") }
func reluFwd16f32(out, x unsafe.Pointer, n int)     { panic("tensor: SIMD kernel unavailable") }
func reluBwd8f64(out, dy, x unsafe.Pointer, n int)  { panic("tensor: SIMD kernel unavailable") }
func reluBwd16f32(out, dy, x unsafe.Pointer, n int) { panic("tensor: SIMD kernel unavailable") }
func add8f64(out, a, b unsafe.Pointer, n int)       { panic("tensor: SIMD kernel unavailable") }
func add16f32(out, a, b unsafe.Pointer, n int)      { panic("tensor: SIMD kernel unavailable") }

func addBias8f64(out, b unsafe.Pointer, rows, cols int)     { panic("tensor: SIMD kernel unavailable") }
func addBias16f32(out, b unsafe.Pointer, rows, cols int)    { panic("tensor: SIMD kernel unavailable") }
func foldCols8f64(grad, dy unsafe.Pointer, rows, cols int)  { panic("tensor: SIMD kernel unavailable") }
func foldCols16f32(grad, dy unsafe.Pointer, rows, cols int) { panic("tensor: SIMD kernel unavailable") }

func ptr[T Elem](s []T) unsafe.Pointer { return unsafe.Pointer(&s[0]) }
