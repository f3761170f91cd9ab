package tensor

import (
	"fmt"
	"sync"
)

// The matmul family is one cache-blocked, register-tiled GEMM shared by
// all three transpose variants and every shape:
//
//	MatMulInto         dst  = a · b
//	MatMulT1Into       dst  = aᵀ · b
//	MatMulT2Into       dst  = a · bᵀ
//	MatMulT1AddInto    dst += aᵀ · b   (one add per element: the fold)
//	MatMulT2PanelInto  dst  = a · wᵀ   (w packed once, as a Panel: panel.go)
//
// All but the fold ignore what dst holds; none of them asks a caller to
// zero, fold or copy around it. The kernels own the destination: each
// takes a C mode (cMode) that starts its accumulators from C or from +0
// and stores the sum or C + sum.
//
// Loop nest: jc over columns (NC) → pc over the inner dimension (KC) → ic
// over the rows (MC) → 4×16 register tiles. The microkernel takes strides,
// so the operands are read where they lie: A is never copied (aᵀ is the
// same walk with the row and step strides swapped), and a row-major B is
// read straight out of the tensor. B is copied into an NR-interleaved
// scratch panel only when the copy does work the strides cannot:
//
//   - it is stored transposed (T2, i.e. Linear.Forward's x·Wᵀ): the 16
//     values of a step lie k apart, and the copy is the transposition,
//     moved p-major so each step is one contiguous store;
//   - m ≥ mcBlock, so at least mcBlock/mrTile = 32 row tiles reuse each
//     panel: one pass over B then buys unit-stride reads for all of them
//     (a 512-wide float64 B has a 4 KiB row stride, every step of a tile
//     in the same L1 set; 512³ loses a quarter of its rate without this).
//
// A Panel is that copy made once for a whole weight, which every product
// that reads the weight then shares (panel.go).
//
// The threshold is a reuse count, not a work gate: PipeMare's slots are
// short products (a microbatch of a few rows through a weight), where a
// panel copy has two or seven tiles to amortise over and costs more than
// the multiply. Full tiles go to the microkernel, which vectorizes across
// the 16 independent output columns using separate multiply and add
// instructions, NOT fused multiply-add: on amd64 with AVX-512 one
// hand-written 4×16 kernel (microkernel_amd64.s); with AVX only, the 4×8
// AVX kernel on each 8-column half of the tile; elsewhere its Go twin on
// each half. Every other tile — short of 4 rows or 16 columns — takes the
// masked 4×16 edge kernel on AVX-512; elsewhere a ragged tile of 8–15
// columns still runs the 4×8 kernel on its first eight, and the rest, and
// every tile short of 4 rows, go to one strided scalar tail. (gc does not
// auto-vectorize, and math.FMA would both change the rounding and crawl
// on pre-FMA hardware, so this is the only way to beat the scalar FLOP
// ceiling without giving up determinism.)
//
// Determinism: every output element accumulates its a[i,p]·b[p,j]
// contributions one rounded multiply and one floating-point add at a time
// in strictly ascending-p order, starting from +0 (the first panel of an
// overwrite or a fold) or from the partial sum the previous panel stored;
// a fold then adds the sum to dst once. Blocking only changes *when* each
// chain segment runs, never its order: the kc panels partition p in
// ascending runs, register accumulators carry the chain within a panel,
// and the store/reload between panels is exact. Copying B moves values
// without arithmetic.
// Every multiply-add in this file is written acc += T(a*b): the explicit
// conversion rounds the product, which forbids the compiler from fusing
// it into the add (gc does on arm64, ppc64le, s390x and riscv64), so the
// Go kernels round exactly as the assembly does. Hence blocked ≡ naive,
// bitwise, per dtype, on every GOARCH and at every kernel level — for this
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
	nrTile  = 16  // register-tile columns (one or two AVX-512 vectors)
	nrHalf  = 8   // the 4×8 AVX and Go kernels' columns: half a tile
	mcBlock = 128 // row block; from this many rows on, B is copied
	kcBlock = 256 // inner-dimension panel
	ncBlock = 512 // column panel (the widest B copy)
)

// scratch is a pooled buffer: the NR-interleaved B panel of one gemm
// call (packPools, kcBlock×ncBlock), a weight's whole Wᵀ panel
// (panelPools), or the m×n sum MatMulT1AddInto forms before its fold when
// k spans several panels (sumPools).
type scratch[T Elem] struct {
	b []T
}

// The pools are indexed by DType; entries hold *scratch[float64] or
// *scratch[float32] respectively. Wᵀ panels, whose sizes vary with the
// weight's shape, are pooled by size class apart from the gemm's
// fixed-size pack: a Get that draws a buffer too short for it drops the
// buffer and allocates, so a pool mixing sizes reallocates whenever a
// smaller buffer comes back first (panelScratch).
var packPools, sumPools [2]sync.Pool
var panelPools [64][2]sync.Pool

// getScratch returns a buffer of n elements from pools, growing a pooled
// one that is too short. Its contents are unspecified.
func getScratch[T Elem](pools *[2]sync.Pool, n int) *scratch[T] {
	s, ok := pools[dtypeOf[T]()].Get().(*scratch[T])
	if !ok {
		s = &scratch[T]{}
	}
	if cap(s.b) < n {
		s.b = make([]T, n)
	}
	s.b = s.b[:n]
	return s
}

func putScratch[T Elem](pools *[2]sync.Pool, s *scratch[T]) {
	pools[dtypeOf[T]()].Put(s)
}

// MatMulInto computes dst = a @ b. dst must be an m×n tensor; whatever
// it holds is ignored and every element overwritten (zeros when k = 0).
// All three tensors must share a dtype.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v @ %v", a.Shape, b.Shape))
	}
	checkDst(dst, a, b, m, n, "MatMul")
	if dst.dt == Float32 {
		gemm(F32(dst), F32(a), F32(b), m, n, k, false, false, cZero, false)
	} else {
		gemm(F64(dst), F64(a), F64(b), m, n, k, false, false, cZero, false)
	}
}

// MatMulT1Into computes dst = aᵀ @ b, overwriting the m×n dst as
// MatMulInto does. All three tensors must share a dtype.
func MatMulT1Into(dst, a, b *Tensor) {
	m, n, k := t1Dims(dst, a, b, "MatMulT1")
	if dst.dt == Float32 {
		gemm(F32(dst), F32(a), F32(b), m, n, k, true, false, cZero, false)
	} else {
		gemm(F64(dst), F64(a), F64(b), m, n, k, true, false, cZero, false)
	}
}

// MatMulT1AddInto computes dst += aᵀ @ b with one add per element: the
// product is summed from +0 and then added to dst, so the result is the
// bits of MatMulT1Into into a zeroed temporary followed by AddInto — the
// weight-gradient fold of Param.Grad's contract. For k ≤ kcBlock the
// kernels form the sum in registers and fold it at the store; a longer k
// sums into a pooled temporary first, since the sum must outlive a panel.
func MatMulT1AddInto(dst, a, b *Tensor) {
	m, n, k := t1Dims(dst, a, b, "MatMulT1Add")
	if dst.dt == Float32 {
		gemmFold(F32(dst), F32(a), F32(b), m, n, k)
	} else {
		gemmFold(F64(dst), F64(a), F64(b), m, n, k)
	}
}

// MatMulT2Into computes dst = a @ bᵀ, overwriting the m×n dst as
// MatMulInto does. All three tensors must share a dtype.
func MatMulT2Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2 requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dimension mismatch %v @ %vᵀ", a.Shape, b.Shape))
	}
	checkDst(dst, a, b, m, n, "MatMulT2")
	if dst.dt == Float32 {
		gemm(F32(dst), F32(a), F32(b), m, n, k, false, true, cZero, false)
	} else {
		gemm(F64(dst), F64(a), F64(b), m, n, k, false, true, cZero, false)
	}
}

// t1Dims checks the operands of aᵀ @ b and returns (m, n, k).
func t1Dims(dst, a, b *Tensor, op string) (m, n, k int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	k, m = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %vᵀ @ %v", op, a.Shape, b.Shape))
	}
	checkDst(dst, a, b, m, n, op)
	return m, n, k
}

func checkDst(dst, a, b *Tensor, m, n int, op string) {
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination %v, want (%d,%d)", op, dst.Shape, m, n))
	}
	checkDtypes(dst, a, b, op)
}

func checkDtypes(dst, a, b *Tensor, op string) {
	if dst.dt != a.dt || dst.dt != b.dt {
		panic(fmt.Sprintf("tensor: %s dtype mismatch dst %s, a %s, b %s", op, dst.dt, a.dt, b.dt))
	}
}

// cMode says what a kernel does with the C tile it is handed; every
// kernel level takes it after kc.
type cMode int

const (
	// cLoad: the accumulators start from C (C += Σ). Only the k-panels
	// after a call's first use it.
	cLoad cMode = iota
	// cZero: they start at +0 and the store overwrites C (C = Σ). The
	// first add is +0 + a·b, exactly what loading a zeroed C gives.
	cZero
	// cFold: they start at +0 and the store writes C + Σ, C the first
	// operand of the add as in AddInto's dst += src: the bits of a zeroed
	// temporary folded with one AddInto. Only a single k-panel can fold.
	cFold
)

// gemmFold is MatMulT1AddInto on raw slices.
func gemmFold[T Elem](dst, a, b []T, m, n, k int) {
	if k <= kcBlock {
		gemm(dst, a, b, m, n, k, true, false, cFold, false)
		return
	}
	s := getScratch[T](&sumPools, m*n)
	gemm(s.b, a, b, m, n, k, true, false, cZero, false)
	addInto(dst, s.b)
	putScratch(&sumPools, s)
}

// gemm writes the m×n product into dst in the given mode (cZero or, for a
// single k-panel, cFold). aT reads A as its transpose (A stored k×m); bT
// reads B as its transpose (B stored n×k). panel says b is already a
// whole-matrix panel of such a B (packPanel): each block is read where it
// lies, and nothing is packed.
func gemm[T Elem](dst, a, b []T, m, n, k int, aT, bT bool, mode cMode, panel bool) {
	dst = dst[:m*n]
	if k == 0 {
		// The empty sum is +0. Folding it still turns a −0 into +0, as
		// adding a zeroed temporary does.
		for i := range dst {
			if mode == cFold {
				dst[i] += 0
			} else {
				dst[i] = 0
			}
		}
		return
	}
	ars, aps := k, 1 // A element (i, p) is a[i*ars+p*aps]
	if aT {
		ars, aps = 1, m
	}
	ldb := n
	if bT {
		ldb = k
	}
	var s *scratch[T] // nil: B is read in place, or from the panel
	if !panel && (bT || m >= mcBlock) {
		s = getScratch[T](&packPools, kcBlock*ncBlock)
	}
	for jc := 0; jc < n; jc += ncBlock {
		nc := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			kc := min(kcBlock, k-pc)
			pm := mode
			if pc > 0 {
				pm = cLoad
			}
			// The tile at column jr reads its B rows from bp[jr*bjs:],
			// bps apart: in place, or in the NR-interleaved copy — this
			// call's, or the panel's block.
			bp, bjs, bps := b[pc*n+jc:], 1, n
			switch {
			case panel:
				bp, bjs, bps = b[panelBlock(jc, nc, pc, k):], kc, nrTile
			case s != nil:
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
							microFull(c, n, at, ars, aps, bt, bps, kc, pm)
						} else {
							microEdge(c, n, at, ars, aps, bt, bps, kc, pm, mr, nr)
						}
					}
				}
			}
		}
	}
	if s != nil {
		putScratch(&packPools, s)
	}
}

// packB copies the kc×nc panel of B at (p0, j0) into NR-interleaved
// groups: group g holds columns j0+g·NR … p-major, NR values per step, so
// a tile reads it with unit step stride. A row-major B (stored k×n) moves
// a row of the group at a time. A transposed one (stored n×k) is the
// transposition: a full group walks its 16 source rows together (packT),
// a ragged last group each of its columns along its source row, zeroing
// its lanes past nc (which no kernel reads) so that a panel's bits are a
// function of B alone.
func packB[T Elem](bp, b []T, ldb, j0, nc, p0, kc int, bT bool) {
	for jr := 0; jr < nc; jr += nrTile {
		cols := min(nrTile, nc-jr)
		g := bp[jr*kc : (jr+nrTile)*kc]
		switch {
		case !bT:
			for p := 0; p < kc; p++ {
				copy(g[p*nrTile:p*nrTile+cols], b[(p0+p)*ldb+j0+jr:])
			}
		case cols == nrTile:
			packT(g, b[(j0+jr)*ldb+p0:], ldb, kc)
		default:
			for c := 0; c < cols; c++ {
				col := b[(j0+jr+c)*ldb+p0:][:kc]
				for p, v := range col {
					g[p*nrTile+c] = v
				}
			}
			for p := 0; p < kc; p++ {
				clear(g[p*nrTile+cols : (p+1)*nrTile])
			}
		}
	}
}

// packT transposes one full group of a transposed B: source row c (ldb
// apart in src) becomes lane c of every step of g. It holds a cursor on
// each of the 16 rows and moves the group p-major, so every step is one
// contiguous 16-wide store rather than 16 stores NR apart.
func packT[T Elem](g, src []T, ldb, kc int) {
	r0, r1, r2, r3 := src[:kc], src[ldb:][:kc], src[2*ldb:][:kc], src[3*ldb:][:kc]
	r4, r5, r6, r7 := src[4*ldb:][:kc], src[5*ldb:][:kc], src[6*ldb:][:kc], src[7*ldb:][:kc]
	r8, r9, r10, r11 := src[8*ldb:][:kc], src[9*ldb:][:kc], src[10*ldb:][:kc], src[11*ldb:][:kc]
	r12, r13, r14, r15 := src[12*ldb:][:kc], src[13*ldb:][:kc], src[14*ldb:][:kc], src[15*ldb:][:kc]
	for p := range r0 {
		d := g[p*nrTile:][:nrTile]
		d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
		d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
		d[8], d[9], d[10], d[11] = r8[p], r9[p], r10[p], r11[p]
		d[12], d[13], d[14], d[15] = r12[p], r13[p], r14[p], r15[p]
	}
}

// microFull runs a full 4×16 tile over kc ≥ 1 steps in C mode mode: the
// AVX-512 kernel on amd64 when available, otherwise microHalf on each
// 8-column half of the same operands. Every kernel reads A as
// a[r*ars+p*aps] and B as b[p*bps …] and accumulates each element in
// ascending-p order with a separate, unfused multiply and add, so they are
// bitwise interchangeable.
func microFull[T Elem](c []T, ldc int, a []T, ars, aps int, b []T, bps, kc int, mode cMode) {
	if haveAVX512 {
		// Everything the tile touches, checked here so the assembly needs
		// no bounds logic.
		_ = c[3*ldc+nrTile-1]
		_ = a[3*ars+(kc-1)*aps]
		_ = b[(kc-1)*bps+nrTile-1]
		if dtypeOf[T]() == Float64 {
			kern4x16f64(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc, mode)
		} else {
			kern4x16f32(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc, mode)
		}
		return
	}
	microHalf(c, ldc, a, ars, aps, b, bps, kc, mode)
	microHalf(c[nrHalf:], ldc, a, ars, aps, b[nrHalf:], bps, kc, mode)
}

// microEdge runs any tile of mr ≤ 4 rows by nr ≤ 16 columns — in gemm,
// every tile short of 4×16 — in C mode mode: on AVX-512 hosts the masked
// 4×16 kernel, which touches nothing past the tile's rows and columns;
// elsewhere the 4×8 kernel on the first eight columns of a 4-row tile
// of 8 or more, and the scalar tail on the rest.
func microEdge[T Elem](c []T, ldc int, a []T, ars, aps int, b []T, bps, kc int, mode cMode, mr, nr int) {
	switch {
	case haveAVX512:
		_ = c[(mr-1)*ldc+nr-1]
		_ = a[(mr-1)*ars+(kc-1)*aps]
		_ = b[(kc-1)*bps+nr-1]
		if dtypeOf[T]() == Float64 {
			kern4x16mf64(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc, mode, mr, nr)
		} else {
			kern4x16mf32(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc, mode, mr, nr)
		}
	case mr == mrTile && nr >= nrHalf:
		microHalf(c, ldc, a, ars, aps, b, bps, kc, mode)
		if nr > nrHalf {
			microTail(c[nrHalf:], ldc, a, ars, aps, b[nrHalf:], bps, kc, mode, mr, nr-nrHalf)
		}
	default:
		microTail(c, ldc, a, ars, aps, b, bps, kc, mode, mr, nr)
	}
}

// microHalf runs a 4×8 tile — the left or right half of a full one, or
// the first eight columns of a ragged one: the AVX kernel on amd64 when
// available, otherwise its Go twin, a row at a time so the 8 accumulators
// fit the scalar register file.
func microHalf[T Elem](c []T, ldc int, a []T, ars, aps int, b []T, bps, kc int, mode cMode) {
	if haveSIMD {
		_ = c[3*ldc+nrHalf-1]
		_ = a[3*ars+(kc-1)*aps]
		_ = b[(kc-1)*bps+nrHalf-1]
		if dtypeOf[T]() == Float64 {
			kern4x8f64(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc, mode)
		} else {
			kern4x8f32(ptr(c), ldc, ptr(a), ars, aps, ptr(b), bps, kc, mode)
		}
		return
	}
	for ir := 0; ir < mrTile; ir++ {
		crow := c[ir*ldc : ir*ldc+8]
		var c0, c1, c2, c3, c4, c5, c6, c7 T
		if mode == cLoad {
			c0, c1, c2, c3 = crow[0], crow[1], crow[2], crow[3]
			c4, c5, c6, c7 = crow[4], crow[5], crow[6], crow[7]
		}
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
		if mode == cFold {
			c0, c1, c2, c3 = crow[0]+c0, crow[1]+c1, crow[2]+c2, crow[3]+c3
			c4, c5, c6, c7 = crow[4]+c4, crow[5]+c5, crow[6]+c6, crow[7]+c7
		}
		crow[0], crow[1], crow[2], crow[3] = c0, c1, c2, c3
		crow[4], crow[5], crow[6], crow[7] = c4, c5, c6, c7
	}
}

// microTail handles what no SIMD tile covers on a host without AVX-512 —
// a tile short of 4 rows, or the columns of a ragged one past its 4×8
// kernel (all of them if fewer than 8) — over the same strided operands,
// a row at a time: four columns at a time (dot4), then each column left
// over (dot1). Each element takes its terms one unfused multiply and add
// at a time in ascending p, from C or +0 as the mode says, and a fold
// adds C once at the end, so it is bitwise interchangeable with a
// microFull lane.
func microTail[T Elem](c []T, ldc int, a []T, ars, aps int, b []T, bps, kc int, mode cMode, mr, nr int) {
	for ir := 0; ir < mr; ir++ {
		crow, ar := c[ir*ldc:ir*ldc+nr], a[ir*ars:]
		q := 0
		for ; q+4 <= nr; q += 4 {
			cq := crow[q : q+4]
			var s0, s1, s2, s3 T
			if mode == cLoad {
				s0, s1, s2, s3 = cq[0], cq[1], cq[2], cq[3]
			}
			s0, s1, s2, s3 = dot4(ar, aps, b[q:], bps, kc, s0, s1, s2, s3)
			if mode == cFold {
				s0, s1, s2, s3 = cq[0]+s0, cq[1]+s1, cq[2]+s2, cq[3]+s3
			}
			cq[0], cq[1], cq[2], cq[3] = s0, s1, s2, s3
		}
		for ; q < nr; q++ {
			var s T
			if mode == cLoad {
				s = crow[q]
			}
			s = dot1(ar, aps, b[q:], bps, kc, s)
			if mode == cFold {
				s = crow[q] + s
			}
			crow[q] = s
		}
	}
}

// dot4 adds a[p*aps]·b[p*bps+j] to sj for j < 4, p ascending from 0 to
// kc−1. Not inlined (nor is dot1): on its own the loop keeps every value
// in a register, where inside microTail's loops, beside the mode, half of
// them spilled to the stack and the tail ran 15–60% slower.
//
//go:noinline
func dot4[T Elem](a []T, aps int, b []T, bps, kc int, s0, s1, s2, s3 T) (T, T, T, T) {
	ai, bi := 0, 0
	for p := 0; p < kc; p++ {
		av, bv := a[ai], b[bi:bi+4]
		s0 += T(av * bv[0])
		s1 += T(av * bv[1])
		s2 += T(av * bv[2])
		s3 += T(av * bv[3])
		ai += aps
		bi += bps
	}
	return s0, s1, s2, s3
}

// dot1 is dot4 for one column.
//
//go:noinline
func dot1[T Elem](a []T, aps int, b []T, bps, kc int, s T) T {
	ai, bi := 0, 0
	for p := 0; p < kc; p++ {
		s += T(a[ai] * b[bi])
		ai += aps
		bi += bps
	}
	return s
}
