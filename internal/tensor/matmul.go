package tensor

import (
	"fmt"
	"sync"
)

// The matmul family is implemented as one cache-blocked, register-tiled
// GEMM (GotoBLAS-style loop nest) shared by all three transpose
// variants:
//
//	MatMulInto    dst += a · b     (dst zero on entry by contract)
//	MatMulT1Into  dst += aᵀ · b    (dst zero on entry by contract)
//	MatMulT2Into  dst  = a · bᵀ    (dst overwritten: zeroed, then +=)
//
// Blocking: jc over columns (NC) → pc over the inner dimension (KC,
// packing a kc×nc panel of B into NR-interleaved scratch) → ic over the
// rows (MC, packing an mc×kc panel of A into MR-interleaved scratch) →
// 4×8 register tiles. Packed panels make the microkernel's
// loads unit-stride and bounds-check-free. On amd64 with AVX the full
// tile runs as a hand-written SIMD kernel (microkernel_amd64.s) that
// vectorizes across the 8 independent output columns using separate
// multiply and add instructions — NOT fused multiply-add — so each
// output element performs exactly the same rounding steps as the scalar
// Go fallback and the naive reference loop: the SIMD path is a layout
// change, not a numeric one, and results are bit-identical on every
// machine. (gc does not auto-vectorize, and math.FMA would both change
// the rounding and crawl on pre-FMA hardware, so this is the only way to
// beat the scalar FLOP ceiling without giving up determinism.)
//
// Determinism: every output element accumulates its a[i,p]·b[p,j]
// contributions one floating-point add at a time in strictly ascending-p
// order, starting from the element's current dst value. Blocking only
// changes *when* each chain segment runs, never its order: the kc panels
// partition p in ascending runs, register accumulators carry the chain
// within a panel, and the store/reload between panels is exact. Packing
// copies values without arithmetic. The ragged-edge tail kernel walks the
// same packed panels in the same ascending-p order, and padding lanes are
// never stored. Hence blocked ≡ naive, bitwise, per dtype — the property
// the engine equivalence suite pins.
//
// The kernels do not skip zero A elements (the old naive loops did). For
// finite inputs the skip is arithmetically invisible (x + 0·b == x, and a
// +0 accumulator stays +0), so this is bitwise identical on every value
// the trainers produce; the test oracle (matmul_test.go) uses the same
// no-skip semantics.

const (
	mrTile  = 4   // register-tile rows
	nrTile  = 8   // register-tile columns (one or two SIMD vectors)
	mcBlock = 128 // A-panel rows (per pack)
	kcBlock = 256 // inner-dimension panel
	ncBlock = 512 // B-panel columns (per pack)

	// Shapes with m·n·k at or below this run the direct (unpacked)
	// loops: packing overhead beats the cache win on tiny operands.
	// The gate depends only on the shape, and direct and blocked are
	// bitwise identical anyway, so it cannot break determinism.
	directMaxWork = 32 * 1024
)

// packScratch holds the reusable packed A/B panels for one gemm call.
type packScratch[T Elem] struct {
	a []T
	b []T
}

// packPools is indexed by DType; entries hold *packScratch[float64] or
// *packScratch[float32] respectively.
var packPools [2]sync.Pool

func getPack[T Elem]() *packScratch[T] {
	if s, ok := packPools[dtypeOf[T]()].Get().(*packScratch[T]); ok {
		return s
	}
	return &packScratch[T]{
		a: make([]T, kcBlock*mcBlock),
		b: make([]T, kcBlock*ncBlock),
	}
}

func putPack[T Elem](s *packScratch[T]) {
	packPools[dtypeOf[T]()].Put(s)
}

// MatMul returns a @ b for rank-2 tensors a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes a @ b into dst, which must be an m×n tensor whose
// elements are zero (freshly allocated or zeroed; tape arenas hand out
// zeroed buffers). All three tensors must share a dtype.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v @ %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul destination %v, want (%d,%d)", dst.Shape, m, n))
	}
	checkDtypes(dst, a, b, "MatMul")
	if dst.dt == Float32 {
		gemm(F32(dst), F32(a), F32(b), m, n, k, false, false, false)
	} else {
		gemm(F64(dst), F64(a), F64(b), m, n, k, false, false, false)
	}
}

// MatMulT1 returns aᵀ @ b for a (k×m) and b (k×n): result is m×n.
func MatMulT1(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.Shape[1], b.Shape[1])
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes aᵀ @ b into dst, an m×n tensor whose elements must
// be zero on entry. All three tensors must share a dtype.
func MatMulT1Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1 requires rank-2 tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT1 inner dimension mismatch %vᵀ @ %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT1 destination %v, want (%d,%d)", dst.Shape, m, n))
	}
	checkDtypes(dst, a, b, "MatMulT1")
	if dst.dt == Float32 {
		gemm(F32(dst), F32(a), F32(b), m, n, k, true, false, false)
	} else {
		gemm(F64(dst), F64(a), F64(b), m, n, k, true, false, false)
	}
}

// MatMulT2 returns a @ bᵀ for a (m×k) and b (n×k): result is m×n.
func MatMulT2(a, b *Tensor) *Tensor {
	out := NewOf(a.dt, a.Shape[0], b.Shape[0])
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes a @ bᵀ into dst, an m×n tensor. Every element of
// dst is overwritten. All three tensors must share a dtype.
func MatMulT2Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2 requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dimension mismatch %v @ %vᵀ", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulT2 destination %v, want (%d,%d)", dst.Shape, m, n))
	}
	checkDtypes(dst, a, b, "MatMulT2")
	if dst.dt == Float32 {
		gemm(F32(dst), F32(a), F32(b), m, n, k, false, true, true)
	} else {
		gemm(F64(dst), F64(a), F64(b), m, n, k, false, true, true)
	}
}

func checkDtypes(dst, a, b *Tensor, op string) {
	if dst.dt != a.dt || dst.dt != b.dt {
		panic(fmt.Sprintf("tensor: %s dtype mismatch dst %s, a %s, b %s", op, dst.dt, a.dt, b.dt))
	}
}

// gemm accumulates the m×n product into dst. aT reads A as its transpose
// (A stored k×m); bT reads B as its transpose (B stored n×k). overwrite
// zeroes dst before accumulating (the T2 contract).
func gemm[T Elem](dst, a, b []T, m, n, k int, aT, bT, overwrite bool) {
	lda := k
	if aT {
		lda = m
	}
	ldb := n
	if bT {
		ldb = k
	}
	if overwrite {
		zero(dst)
	}
	if m*n*k <= directMaxWork {
		mmDirect(dst, a, b, m, n, k, lda, ldb, aT, bT)
		return
	}
	mmBlocked(dst, a, b, m, n, k, lda, ldb, aT, bT)
}

// mmDirect is the unpacked small-shape path: ascending-p per-element
// accumulation, bitwise identical to mmBlocked.
func mmDirect[T Elem](dst, a, b []T, m, n, k, lda, ldb int, aT, bT bool) {
	for i := 0; i < m; i++ {
		orow := dst[i*n : (i+1)*n]
		if bT {
			arow := a // placate the compiler when aT
			if !aT {
				arow = a[i*lda : i*lda+k]
			}
			for j := range orow {
				brow := b[j*ldb : j*ldb+k]
				acc := orow[j]
				if aT {
					for p := 0; p < k; p++ {
						acc += a[p*lda+i] * brow[p]
					}
				} else {
					for p := 0; p < k; p++ {
						acc += arow[p] * brow[p]
					}
				}
				orow[j] = acc
			}
			continue
		}
		for p := 0; p < k; p++ {
			var av T
			if aT {
				av = a[p*lda+i]
			} else {
				av = a[i*lda+p]
			}
			brow := b[p*ldb : p*ldb+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// mmBlocked runs the packed/blocked loop nest: each B panel is packed once
// and reused by every A panel under it.
func mmBlocked[T Elem](dst, a, b []T, m, n, k, lda, ldb int, aT, bT bool) {
	s := getPack[T]()
	for jc := 0; jc < n; jc += ncBlock {
		nc := min(ncBlock, n-jc)
		ncPad := roundUp(nc, nrTile)
		for pc := 0; pc < k; pc += kcBlock {
			kc := min(kcBlock, k-pc)
			bp := s.b[:kc*ncPad]
			packB(bp, b, ldb, jc, nc, pc, kc, bT)
			for ic := 0; ic < m; ic += mcBlock {
				mc := min(mcBlock, m-ic)
				ap := s.a[:kc*roundUp(mc, mrTile)]
				packA(ap, a, lda, ic, mc, pc, kc, aT)
				for jr := 0; jr < nc; jr += nrTile {
					nr := min(nrTile, nc-jr)
					bpp := bp[(jr/nrTile)*kc*nrTile:]
					for ir := 0; ir < mc; ir += mrTile {
						mr := min(mrTile, mc-ir)
						app := ap[(ir/mrTile)*kc*mrTile:]
						c := dst[(ic+ir)*n+jc+jr:]
						if mr == mrTile && nr == nrTile {
							microFull(c, n, app, bpp, kc)
						} else {
							microTail(c, n, app, bpp, kc, mr, nr)
						}
					}
				}
			}
		}
	}
	putPack(s)
}

func roundUp(x, m int) int { return (x + m - 1) / m * m }

// packA copies the mc×kc panel of A at (i0, p0) into MR-interleaved
// groups: group g holds rows i0+g·MR … interleaved p-major, so the
// microkernel reads its MR A values contiguously per p. Rows past mc are
// zero-padded; those lanes are only ever touched by micro4x4 on full
// tiles, which never exist in a padded group.
func packA[T Elem](ap, a []T, lda, i0, mc, p0, kc int, aT bool) {
	idx := 0
	for ir0 := 0; ir0 < mc; ir0 += mrTile {
		rows := min(mrTile, mc-ir0)
		for p := 0; p < kc; p++ {
			for r := 0; r < mrTile; r++ {
				var v T
				if r < rows {
					if aT {
						v = a[(p0+p)*lda+i0+ir0+r]
					} else {
						v = a[(i0+ir0+r)*lda+p0+p]
					}
				}
				ap[idx] = v
				idx++
			}
		}
	}
}

// packB copies the kc×nc panel of B at (p0, j0) into NR-interleaved
// groups, mirroring packA for columns.
func packB[T Elem](bp, b []T, ldb, j0, nc, p0, kc int, bT bool) {
	idx := 0
	for jr0 := 0; jr0 < nc; jr0 += nrTile {
		cols := min(nrTile, nc-jr0)
		for p := 0; p < kc; p++ {
			for c := 0; c < nrTile; c++ {
				var v T
				if c < cols {
					if bT {
						v = b[(j0+jr0+c)*ldb+p0+p]
					} else {
						v = b[(p0+p)*ldb+j0+jr0+c]
					}
				}
				bp[idx] = v
				idx++
			}
		}
	}
}

// microFull runs a full 4×8 tile: the AVX kernel on amd64 when available,
// otherwise a row-at-a-time generic kernel whose 8 accumulators fit the
// scalar register file. Both accumulate each element in ascending-p order
// with separate multiply and add, so they are bitwise interchangeable.
func microFull[T Elem](c []T, ldc int, ap, bp []T, kc int) {
	if kc == 0 {
		return
	}
	if haveSIMD {
		// The tile spans c[0 … 3*ldc+7]; the packed panels hold kc
		// MR/NR-groups. Checked here so the assembly needs no bounds logic.
		_ = c[3*ldc+7]
		_ = ap[4*kc-1]
		_ = bp[8*kc-1]
		if dtypeOf[T]() == Float64 {
			kern4x8f64(ptr(c), ldc, ptr(ap), ptr(bp), kc)
		} else {
			kern4x8f32(ptr(c), ldc, ptr(ap), ptr(bp), kc)
		}
		return
	}
	for ir := 0; ir < mrTile; ir++ {
		crow := c[ir*ldc : ir*ldc+8]
		c0, c1, c2, c3 := crow[0], crow[1], crow[2], crow[3]
		c4, c5, c6, c7 := crow[4], crow[5], crow[6], crow[7]
		a, b := ap[ir:], bp
		for p := 0; p < kc; p++ {
			av := a[0]
			bv := b[0:8]
			c0 += av * bv[0]
			c1 += av * bv[1]
			c2 += av * bv[2]
			c3 += av * bv[3]
			c4 += av * bv[4]
			c5 += av * bv[5]
			c6 += av * bv[6]
			c7 += av * bv[7]
			if p < kc-1 {
				a = a[4:]
				b = b[8:]
			}
		}
		crow[0], crow[1], crow[2], crow[3] = c0, c1, c2, c3
		crow[4], crow[5], crow[6], crow[7] = c4, c5, c6, c7
	}
}

// microTail handles ragged tiles (mr<4 or nr<4): each real element walks
// its packed lane in the same ascending-p order as a micro4x4 lane, so
// the two are bitwise interchangeable. Padded lanes are never read.
func microTail[T Elem](c []T, ldc int, ap, bp []T, kc, mr, nr int) {
	for ir := 0; ir < mr; ir++ {
		for jr := 0; jr < nr; jr++ {
			acc := c[ir*ldc+jr]
			for p := 0; p < kc; p++ {
				acc += ap[p*mrTile+ir] * bp[p*nrTile+jr]
			}
			c[ir*ldc+jr] = acc
		}
	}
}
