package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// Panel is a weight matrix W (n×k, stored as Linear stores it) packed
// whole as the B operand of a·Wᵀ: every kc×nc block gemm would pack for
// MatMulT2Into, in gemm's own NR-interleaved layout, laid end to end. A
// GEMM from it (MatMulT2PanelInto) reads each block where it lies and
// packs nothing, so a weight read by many products is transposed once.
// The panel copies values without arithmetic, so it is exactly the bits
// packB writes, and a product from it is MatMulT2Into's bit for bit.
//
// The buffer comes from the panel pool and goes back with Release. A panel
// does not see later writes to W: its owner keeps it only while W cannot
// change (nn: while a Param reads one immutable ring snapshot).
type Panel struct {
	n, k int
	dt   DType
	s64  *scratch[float64]
	s32  *scratch[float32]
}

// PackT2 packs the rank-2 w into a panel. The panel is a value, so its
// holder keeps it in place and a pack from a warm pool allocates nothing.
func PackT2(w *Tensor) Panel {
	if w.Rank() != 2 {
		panic("tensor: PackT2 requires a rank-2 tensor")
	}
	p := Panel{n: w.Shape[0], k: w.Shape[1], dt: w.dt}
	if w.dt == Float32 {
		p.s32 = packPanel(w.data32, p.n, p.k)
	} else {
		p.s64 = packPanel(w.data, p.n, p.k)
	}
	return p
}

// Release returns the panel's buffer to the panel pool. The panel must not
// be used again.
func (p *Panel) Release() {
	if p.s32 != nil {
		putScratch(&panelPools[panelClass(cap(p.s32.b))], p.s32)
	}
	if p.s64 != nil {
		putScratch(&panelPools[panelClass(cap(p.s64.b))], p.s64)
	}
	p.s32, p.s64 = nil, nil
}

// Packs reports whether p holds w's panel bit for bit: it packs w again
// and compares. It is the check behind a panel's reuse, for race builds.
func (p *Panel) Packs(w *Tensor) bool {
	q := PackT2(w)
	defer q.Release()
	if p.n != q.n || p.k != q.k || p.dt != q.dt {
		return false
	}
	if p.dt == Float32 {
		return sameSlice(p.s32.b, q.s32.b)
	}
	return sameSlice(p.s64.b, q.s64.b)
}

// sameSlice reports whether a and b hold the same bits.
func sameSlice[T Elem](a, b []T) bool {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// MatMulT2PanelInto computes dst = a @ wᵀ from w's panel, overwriting the
// m×n dst as MatMulT2Into(dst, a, w) does, with the same bits. All three
// must share a dtype.
func MatMulT2PanelInto(dst, a *Tensor, p *Panel) {
	if a.Rank() != 2 {
		panic("tensor: MatMulT2Panel requires a rank-2 tensor")
	}
	m, k := a.Shape[0], a.Shape[1]
	if k != p.k {
		panic(fmt.Sprintf("tensor: MatMulT2Panel inner dimension mismatch %v @ (%d,%d)ᵀ", a.Shape, p.n, p.k))
	}
	if dst.Shape[0] != m || dst.Shape[1] != p.n {
		panic(fmt.Sprintf("tensor: MatMulT2Panel destination %v, want (%d,%d)", dst.Shape, m, p.n))
	}
	if dst.dt != a.dt || dst.dt != p.dt {
		panic(fmt.Sprintf("tensor: MatMulT2Panel dtype mismatch dst %s, a %s, panel %s", dst.dt, a.dt, p.dt))
	}
	if p.dt == Float32 {
		gemm(dst.data32, a.data32, p.s32.b, m, p.n, k, false, true, cZero, true)
	} else {
		gemm(dst.data, a.data, p.s64.b, m, p.n, k, false, true, cZero, true)
	}
}

// packPanel packs the n×k w block by block, in gemm's jc, pc order, into
// a pooled buffer: the block at (jc, pc) starts at panelBlock(jc, nc, pc,
// k) and holds packB's groups for it.
func packPanel[T Elem](w []T, n, k int) *scratch[T] {
	s := panelScratch[T](roundNR(n) * k)
	for jc := 0; jc < n; jc += ncBlock {
		nc := min(ncBlock, n-jc)
		for pc := 0; pc < k; pc += kcBlock {
			packB(s.b[panelBlock(jc, nc, pc, k):], w, k, jc, nc, pc, min(kcBlock, k-pc), true)
		}
	}
	return s
}

// panelScratch returns a pooled buffer of n elements for a panel, from
// n's size class: every buffer of class c holds 1<<c elements, so a Get
// never finds one too short for it.
func panelScratch[T Elem](n int) *scratch[T] {
	c := panelClass(n)
	s := getScratch[T](&panelPools[c], 1<<c)
	s.b = s.b[:n]
	return s
}

// panelClass is the size class of a panel of n elements: ⌈log₂ n⌉.
func panelClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// panelBlock returns where the block of columns [jc, jc+nc) and steps
// from pc starts in a panel with k steps: the column panels before it
// take k steps of ncBlock columns each, and the step blocks before it in
// its own column panel kcBlock steps of nc columns rounded up to whole
// NR groups.
func panelBlock(jc, nc, pc, k int) int { return jc*k + pc*roundNR(nc) }

// roundNR rounds n up to a whole number of NR groups.
func roundNR(n int) int { return (n + nrTile - 1) / nrTile * nrTile }
