package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// randOf returns a random tensor of the given dtype. Values are drawn in
// float64 and rounded, so a float32 tensor holds the rounded image of the
// float64 draw sequence.
func randOf(rng *rand.Rand, dt DType, shape ...int) *Tensor {
	t := NewOf(dt, shape...)
	for i := 0; i < t.Size(); i++ {
		v := rng.NormFloat64()
		if rng.Intn(8) == 0 {
			v = 0
		}
		t.SetFlat(i, v)
	}
	return t
}

// transposed returns aᵀ for a rank-2 tensor: the operand the T1 and T2
// kernels are handed in place of a.
func transposed(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	out := NewOf(a.dt, n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.SetFlat(j*m+i, a.FlatAt(i*n+j))
		}
	}
	return out
}

func bitEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.DType() != want.DType() || !got.SameShape(want) {
		t.Fatalf("%s: shape/dtype mismatch %v vs %v", name, got, want)
	}
	for i := range got.data {
		if got.data[i] != want.data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.data[i], want.data[i])
		}
	}
	for i := range got.data32 {
		if got.data32[i] != want.data32[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.data32[i], want.data32[i])
		}
	}
}

// matmulGrid holds (m, k, n) shapes that put every branch of the loop nest
// on both sides of its boundary: full 4×8 tiles and ragged tails in m and
// n, shapes with no full tile at all, k across the KC panel boundary (the
// store/reload of a tile between two p-panels), n across the NC boundary,
// and m on both sides of mcBlock, where a row-major B goes from being read
// in place to being copied into the panel.
var matmulGrid = [][3]int{
	{1, 1, 1},
	{3, 5, 7},       // no full tile: the tail is the whole product
	{4, 8, 16},      // exact tiles
	{8, 16, 16},     // the residual MLP's product
	{17, 9, 33},     // ragged in m and n
	{1, 40, 24},     // m < MR with n ≥ NR
	{3, 257, 16},    // m < MR, k spans two KC panels
	{12, 33, 1},     // n < NR with m ≥ MR
	{9, 20, 7},      // n < NR with m ≥ MR
	{28, 128, 128},  // a transformer microbatch through a projection
	{64, 64, 64},    // exact tiles
	{65, 66, 67},    // ragged everywhere
	{48, 130, 96},   // k ragged
	{130, 33, 258},  // m past mcBlock with a ragged tail; n ragged vs NR
	{257, 70, 300},  // m spans three row blocks
	{20, 257, 40},   // k one past KC
	{13, 513, 19},   // k spans three KC panels, ragged everywhere
	{127, 300, 24},  // m just under mcBlock, two KC panels: B in place
	{128, 300, 24},  // m at mcBlock: B copied
	{132, 513, 520}, // every block boundary at once, B copied
	{10, 30, 520},   // n spans two NC panels, B in place
}

// checkGridAgainstNaive runs the three variants over matmulGrid in both
// dtypes and requires each result to equal the naive oracle's bit for bit.
func checkGridAgainstNaive(t *testing.T) {
	t.Helper()
	for _, dt := range []DType{Float64, Float32} {
		rng := rand.New(rand.NewSource(7))
		for _, d := range matmulGrid {
			m, k, n := d[0], d[1], d[2]
			name := fmt.Sprintf("%s %dx%dx%d ", dt, m, k, n)
			a := randOf(rng, dt, m, k)
			b := randOf(rng, dt, k, n)
			at := transposed(a)
			bt := transposed(b)

			got, want := NewOf(dt, m, n), NewOf(dt, m, n)
			MatMulInto(got, a, b)
			NaiveMatMulInto(want, a, b)
			bitEqual(t, name+"MatMul", got, want)

			got, want = NewOf(dt, m, n), NewOf(dt, m, n)
			MatMulT1Into(got, at, b)
			NaiveMatMulT1Into(want, at, b)
			bitEqual(t, name+"MatMulT1", got, want)

			// T2 overwrites: both sides start from the same garbage.
			got = randOf(rng, dt, m, n)
			want = got.Clone()
			MatMulT2Into(got, a, bt)
			NaiveMatMulT2Into(want, a, bt)
			bitEqual(t, name+"MatMulT2", got, want)
		}
	}
}

// TestBlockedMatchesNaive pins the kernels' correctness contract per
// dtype: the cache-blocked, register-tiled (and on amd64, SIMD) loop nest
// produces bit-identical results to the naive loops on every shape class
// of matmulGrid.
func TestBlockedMatchesNaive(t *testing.T) { checkGridAgainstNaive(t) }

// TestMatMulAccumulates pins the += contract of MatMulInto/MatMulT1Into
// (dst need only be zero by convention; the kernel must accumulate into
// whatever is there, which the engines' tape reuse relies on), on a ragged
// shape and on one whose k crosses the KC panel boundary, where the tile
// is stored and reloaded between panels.
func TestMatMulAccumulates(t *testing.T) {
	for _, dt := range []DType{Float64, Float32} {
		rng := rand.New(rand.NewSource(3))
		for _, d := range [][3]int{{65, 66, 67}, {21, 300, 35}} {
			m, k, n := d[0], d[1], d[2]
			a := randOf(rng, dt, m, k)
			b := randOf(rng, dt, k, n)
			seed := randOf(rng, dt, m, n)

			got := seed.Clone()
			MatMulInto(got, a, b)
			want := seed.Clone()
			NaiveMatMulInto(want, a, b)
			bitEqual(t, fmt.Sprintf("%s %dx%dx%d accumulate", dt, m, k, n), got, want)

			at := transposed(a)
			got = seed.Clone()
			MatMulT1Into(got, at, b)
			want = seed.Clone()
			NaiveMatMulT1Into(want, at, b)
			bitEqual(t, fmt.Sprintf("%s %dx%dx%d accumulate T1", dt, m, k, n), got, want)
		}
	}
}

// TestKernelsAreLeafCalls pins that a kernel call is a plain loop on the
// calling goroutine: no closure, goroutine or WaitGroup under it, so no
// allocation — at the shapes the workloads run and in the softmax, per
// dtype. It also pins who copies B: a short row-major product (8×16·16×16,
// 28×128·128×128, NN and T1) reads both operands in place and never touches
// the panel pool; T2, and NN from mcBlock rows on, take their panel from
// the warm pool. The pipeline's stage workers are the only parallelism; a
// row split growing back under the kernels shows up here as its escaping
// closures.
func TestKernelsAreLeafCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// One P, so a panel this goroutine Puts is the one its next Get finds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(13))
	for _, dt := range []DType{Float64, Float32} {
		for _, d := range [][3]int{{8, 16, 16}, {28, 128, 128}, {128, 128, 128}} {
			m, k, n := d[0], d[1], d[2]
			a, b := randOf(rng, dt, m, k), randOf(rng, dt, k, n)
			at, bt := transposed(a), transposed(b)
			dst := NewOf(dt, m, n)
			for _, c := range []struct {
				name   string
				pooled bool // copies B into the pooled panel
				call   func()
			}{
				{"MatMulInto", m >= mcBlock, func() { MatMulInto(dst, a, b) }},
				{"MatMulT1Into", m >= mcBlock, func() { MatMulT1Into(dst, at, b) }},
				{"MatMulT2Into", true, func() { MatMulT2Into(dst, a, bt) }},
			} {
				for packPools[dt].Get() != nil { // drain the pool
				}
				c.call()
				if warm := packPools[dt].Get(); (warm != nil) != c.pooled {
					t.Errorf("%s %s %dx%dx%d: B panel taken from the pool = %v, want %v", dt, c.name, m, k, n, warm != nil, c.pooled)
				} else if warm != nil {
					packPools[dt].Put(warm)
				}
				if allocs := testing.AllocsPerRun(50, c.call); allocs != 0 {
					t.Errorf("%s %s %dx%dx%d allocated %.1f times per call, want 0", dt, c.name, m, k, n, allocs)
				}
			}
		}
		x := randOf(rng, dt, 64, 128)
		y := NewLike(x)
		if allocs := testing.AllocsPerRun(50, func() { SoftmaxRowsInto(y, x) }); allocs != 0 {
			t.Errorf("%s SoftmaxRowsInto allocated %.1f times per call, want 0", dt, allocs)
		}
	}
}

// TestIm2ColDtypes pins Im2Col/Col2Im float32 against the float64 path on
// integer-valued data, where both dtypes are exact.
func TestIm2ColDtypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x64 := New(2, 3, 9, 9)
	x32 := NewOf(Float32, 2, 3, 9, 9)
	for i := 0; i < x64.Size(); i++ {
		v := float64(rng.Intn(17) - 8)
		x64.SetFlat(i, v)
		x32.SetFlat(i, v)
	}
	c64 := Im2Col(x64, 3, 3, 2, 1)
	c32 := Im2Col(x32, 3, 3, 2, 1)
	if c32.DType() != Float32 || !c32.SameShape(c64) {
		t.Fatalf("Im2Col float32 shape/dtype: %v vs %v", c32, c64)
	}
	for i := 0; i < c64.Size(); i++ {
		if c64.FlatAt(i) != c32.FlatAt(i) {
			t.Fatalf("Im2Col element %d: %v vs %v", i, c64.FlatAt(i), c32.FlatAt(i))
		}
	}
	i64 := Col2Im(c64, 2, 3, 9, 9, 3, 3, 2, 1)
	i32 := Col2Im(c32, 2, 3, 9, 9, 3, 3, 2, 1)
	if i32.DType() != Float32 {
		t.Fatalf("Col2Im dtype: %v", i32.DType())
	}
	for i := 0; i < i64.Size(); i++ {
		if i64.FlatAt(i) != i32.FlatAt(i) {
			t.Fatalf("Col2Im element %d: %v vs %v", i, i64.FlatAt(i), i32.FlatAt(i))
		}
	}
}

// BenchmarkMatMulShapes measures the three variants at the shapes the
// trainers run — a P=107 residual-MLP slot (8×16·16×16), a transformer
// microbatch through a projection and the two feed-forward halves (28 rows),
// an im2col-shaped conv product (tall, thin) — and at three cubes, the guard
// that the large-shape peak holds. Sub-benchmark names read m x k x n.
func BenchmarkMatMulShapes(b *testing.B) {
	shapes := [][3]int{
		{8, 16, 16}, {28, 128, 128}, {28, 128, 512}, {28, 512, 128}, {512, 27, 16},
		{128, 128, 128}, {256, 256, 256}, {512, 512, 512},
	}
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []DType{Float64, Float32} {
		for _, d := range shapes {
			m, k, n := d[0], d[1], d[2]
			x, y := randOf(rng, dt, m, k), randOf(rng, dt, k, n)
			xt, yt := transposed(x), transposed(y)
			dst := NewOf(dt, m, n)
			for _, c := range []struct {
				name string
				call func()
			}{
				{"NN", func() { MatMulInto(dst, x, y) }},
				{"T1", func() { MatMulT1Into(dst, xt, y) }},
				{"T2", func() { MatMulT2Into(dst, x, yt) }},
			} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", dt, m, k, n, c.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						c.call()
					}
					flops := 2 * float64(m) * float64(k) * float64(n)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

func benchNaive(b *testing.B, dt DType, n int) {
	rng := rand.New(rand.NewSource(1))
	x := randOf(rng, dt, n, n)
	y := randOf(rng, dt, n, n)
	dst := NewOf(dt, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		NaiveMatMulInto(dst, x, y)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkNaiveMatMul64_256(b *testing.B) { benchNaive(b, Float64, 256) }
func BenchmarkNaiveMatMul32_256(b *testing.B) { benchNaive(b, Float32, 256) }

// --- naive reference kernels ---
//
// The pre-blocking streaming loops: the ground truth the blocked kernels
// are pinned bit-equal to. Serial by design.

// NaiveMatMulInto computes dst += a @ b with the pre-blocking serial ikj
// loop (no zero-skip, matching the blocked kernel's semantics exactly).
func NaiveMatMulInto(dst, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDtypes(dst, a, b, "NaiveMatMul")
	if dst.dt == Float32 {
		naiveMM(F32(dst), F32(a), F32(b), m, n, k)
	} else {
		naiveMM(F64(dst), F64(a), F64(b), m, n, k)
	}
}

func naiveMM[T Elem](dst, a, b []T, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// NaiveMatMulT1Into computes dst += aᵀ @ b with the pre-blocking serial
// pij loop.
func NaiveMatMulT1Into(dst, a, b *Tensor) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDtypes(dst, a, b, "NaiveMatMulT1")
	if dst.dt == Float32 {
		naiveMMT1(F32(dst), F32(a), F32(b), m, n, k)
	} else {
		naiveMMT1(F64(dst), F64(a), F64(b), m, n, k)
	}
}

func naiveMMT1[T Elem](dst, a, b []T, m, n, k int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			orow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// NaiveMatMulT2Into computes dst = a @ bᵀ with the pre-blocking serial
// dot-product loop.
func NaiveMatMulT2Into(dst, a, b *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	checkDtypes(dst, a, b, "NaiveMatMulT2")
	if dst.dt == Float32 {
		naiveMMT2(F32(dst), F32(a), F32(b), m, n, k)
	} else {
		naiveMMT2(F64(dst), F64(a), F64(b), m, n, k)
	}
}

func naiveMMT2[T Elem](dst, a, b []T, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s T
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}
