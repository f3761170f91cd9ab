package tensor

import (
	"fmt"
	"sync"
)

// The matmul family is one cache-blocked, register-tiled GEMM shared by
// all three transpose variants and every shape:
//
//	MatMulInto    dst += a · b     (dst zero on entry by contract)
//	MatMulT1Into  dst += aᵀ · b    (dst zero on entry by contract)
//	MatMulT2Into  dst  = a · bᵀ    (dst overwritten: zeroed, then +=)
//
// Loop nest: jc over columns (NC) → pc over the inner dimension (KC) → ic
// over the rows (MC) → 4×8 register tiles. The microkernel takes strides,
// so the operands are read where they lie: A is never copied (aᵀ is the
// same walk with the row and step strides swapped), and a row-major B is
// read straight out of the tensor. B is copied into an NR-interleaved
// scratch panel only when the copy does work the strides cannot:
//
//   - it is stored transposed (T2, i.e. Linear.Forward's x·Wᵀ): the 8
//     values of a step lie k apart, and the copy is the transposition;
//   - m ≥ mcBlock, so at least mcBlock/mrTile = 32 row tiles reuse each
//     panel: one pass over B then buys unit-stride reads for all of them
//     (a 512-wide float64 B has a 4 KiB row stride, every step of a tile
//     in the same L1 set; 512³ loses a quarter of its rate without this).
//
// The threshold is a reuse count, not a work gate: PipeMare's slots are
// short products (a microbatch of a few rows through a weight), where a
// panel copy has two or seven tiles to amortise over and costs more than
// the multiply. Full tiles go to the microkernel — on amd64 with AVX a
// hand-written SIMD kernel (microkernel_amd64.s) that vectorizes across
// the 8 independent output columns using separate multiply and add
// instructions, NOT fused multiply-add; elsewhere its Go twin — and
// ragged tiles to one strided scalar tail. (gc does not auto-vectorize,
// and math.FMA would both change the rounding and crawl on pre-FMA
// hardware, so this is the only way to beat the scalar FLOP ceiling
// without giving up determinism.)
//
// Determinism: every output element accumulates its a[i,p]·b[p,j]
// contributions one rounded multiply and one floating-point add at a time
// in strictly ascending-p order, starting from the element's current dst
// value. Blocking only changes *when* each chain segment runs, never its
// order: the kc panels partition p in ascending runs, register
// accumulators carry the chain within a panel, and the store/reload
// between panels is exact. Copying B moves values without arithmetic.
// Every multiply-add in this file is written acc += T(a*b): the explicit
// conversion rounds the product, which forbids the compiler from fusing
// it into the add (gc does on arm64, ppc64le, s390x and riscv64), so the
// Go kernels round exactly as the assembly does. Hence blocked ≡ naive,
// bitwise, per dtype, on every GOARCH and with or without AVX — for this
// file; DESIGN §12 lists the element-wise kernels elsewhere that gc still
// fuses off amd64.
//
// The kernels do not skip zero A elements (the old naive loops did). For
// finite inputs the skip is arithmetically invisible (x + 0·b == x, and a
// +0 accumulator stays +0), so this is bitwise identical on every value
// the trainers produce; the test oracle (matmul_test.go) uses the same
// no-skip semantics.

const (
	mrTile  = 4   // register-tile rows
	nrTile  = 8   // register-tile columns (one or two SIMD vectors)
	mcBlock = 128 // row block; from this many rows on, B is copied
	kcBlock = 256 // inner-dimension panel
	ncBlock = 512 // column panel (the widest B copy)
)

// packScratch holds the reusable packed B panel for one gemm call.
type packScratch[T Elem] struct {
	b []T
}

// packPools is indexed by DType; entries hold *packScratch[float64] or
// *packScratch[float32] respectively.
var packPools [2]sync.Pool

func getPack[T Elem]() *packScratch[T] {
	if s, ok := packPools[dtypeOf[T]()].Get().(*packScratch[T]); ok {
		return s
	}
	return &packScratch[T]{b: make([]T, kcBlock*ncBlock)}
}

func putPack[T Elem](s *packScratch[T]) {
	packPools[dtypeOf[T]()].Put(s)
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
	ars, aps := k, 1 // A element (i, p) is a[i*ars+p*aps]
	if aT {
		ars, aps = 1, m
	}
	if overwrite {
		zero(dst)
	}
	ldb := n
	if bT {
		ldb = k
	}
	var s *packScratch[T] // nil: B is read in place
	if bT || m >= mcBlock {
		s = getPack[T]()
	}
	for jc := 0; jc < n; jc += ncBlock {
		nc := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			kc := min(kcBlock, k-pc)
			// The tile at column jr reads its B rows from bp[jr*bjs:],
			// bps apart: in place, or in the NR-interleaved copy.
			bp, bjs, bps := b[pc*n+jc:], 1, n
			if s != nil {
				bp, bjs, bps = s.b, kc, nrTile
				packB(bp, b, ldb, jc, nc, pc, kc, bT)
			}
			for ic := 0; ic < m; ic += mcBlock {
				iEnd := min(ic+mcBlock, m)
				for jr := 0; jr < nc; jr += nrTile {
					nr := min(nrTile, nc-jr)
					bt := bp[jr*bjs:]
					for ir := ic; ir < iEnd; ir += mrTile {
						mr := min(mrTile, iEnd-ir)
						c, at := dst[ir*n+jc+jr:], a[ir*ars+pc*aps:]
						if mr == mrTile && nr == nrTile {
							microFull(c, n, at, ars, aps, bt, bps, kc)
						} else {
							microTail(c, n, at, ars, aps, bt, bps, kc, mr, nr)
						}
					}
				}
			}
		}
	}
	if s != nil {
		putPack(s)
	}
}

// packB copies the kc×nc panel of B at (p0, j0) into NR-interleaved
// groups: group g holds columns j0+g·NR … p-major, NR values per step, so
// a tile reads it with unit step stride. A row-major B (stored k×n) moves
// a row of the group at a time; a transposed one (stored n×k) walks each
// of the group's columns along its contiguous source row. The lanes past
// nc in a ragged last group are never read.
func packB[T Elem](bp, b []T, ldb, j0, nc, p0, kc int, bT bool) {
	for jr := 0; jr < nc; jr += nrTile {
		cols := min(nrTile, nc-jr)
		g := bp[jr*kc : (jr+nrTile)*kc]
		if !bT {
			for p := 0; p < kc; p++ {
				copy(g[p*nrTile:p*nrTile+cols], b[(p0+p)*ldb+j0+jr:])
			}
			continue
		}
		for c := 0; c < cols; c++ {
			col := b[(j0+jr+c)*ldb+p0:][:kc]
			for p, v := range col {
				g[p*nrTile+c] = v
			}
		}
	}
}

// microFull runs a full 4×8 tile over kc ≥ 1 steps: the AVX kernel on
// amd64 when available, otherwise its Go twin, a row at a time so the 8
// accumulators fit the scalar register file. Both read A as
// a[r*ars+p*aps] and B as b[p*bps … +7] and accumulate each element in
// ascending-p order with a separate, unfused multiply and add, so they
// are bitwise interchangeable.
func microFull[T Elem](c []T, ldc int, a []T, ars, aps int, b []T, bps, kc int) {
	if haveSIMD {
		// Everything the tile touches, checked here so the assembly needs
		// no bounds logic.
		_ = c[3*ldc+7]
		_ = a[3*ars+(kc-1)*aps]
		_ = b[(kc-1)*bps+7]
		if dtypeOf[T]() == Float64 {
			kern4x8f64(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc)
		} else {
			kern4x8f32(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc)
		}
		return
	}
	for ir := 0; ir < mrTile; ir++ {
		crow := c[ir*ldc : ir*ldc+8]
		c0, c1, c2, c3 := crow[0], crow[1], crow[2], crow[3]
		c4, c5, c6, c7 := crow[4], crow[5], crow[6], crow[7]
		ai, bi := ir*ars, 0
		for p := 0; p < kc; p++ {
			av, bv := a[ai], b[bi:bi+8]
			c0 += T(av * bv[0])
			c1 += T(av * bv[1])
			c2 += T(av * bv[2])
			c3 += T(av * bv[3])
			c4 += T(av * bv[4])
			c5 += T(av * bv[5])
			c6 += T(av * bv[6])
			c7 += T(av * bv[7])
			ai += aps
			bi += bps
		}
		crow[0], crow[1], crow[2], crow[3] = c0, c1, c2, c3
		crow[4], crow[5], crow[6], crow[7] = c4, c5, c6, c7
	}
}

// microTail handles a ragged tile (mr<4 or nr<8) over the same strided
// operands, a row-axpy per step: each element still takes its terms one
// unfused multiply and add at a time in ascending p, so it is bitwise
// interchangeable with a microFull lane. A shape with no full tile is
// computed here whole.
//
// Not inlined: inside gemm its loop counters spill to the stack, which
// costs a third of its speed.
//
//go:noinline
func microTail[T Elem](c []T, ldc int, a []T, ars, aps int, b []T, bps, kc, mr, nr int) {
	for ir := 0; ir < mr; ir++ {
		crow := c[ir*ldc : ir*ldc+nr]
		for p := 0; p < kc; p++ {
			av := a[ir*ars+p*aps]
			brow := b[p*bps:][:len(crow)]
			for q, bv := range brow {
				crow[q] += T(av * bv)
			}
		}
	}
}
