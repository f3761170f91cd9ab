package tensor

import (
	"math/rand"
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

func bitEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.DType() != want.DType() || !got.SameShape(want) {
		t.Fatalf("%s: shape/dtype mismatch %v vs %v", name, got, want)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
	for i := range got.Data32 {
		if got.Data32[i] != want.Data32[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.Data32[i], want.Data32[i])
		}
	}
}

// matmulGrid holds shapes that exercise the direct small path, the
// blocked path, full register tiles, and ragged tails in every dimension
// (m, n, k not multiples of the 4×8 tile or the KC/MC/NC blocks).
var matmulGrid = [][3]int{
	{1, 1, 1},
	{3, 5, 7},
	{4, 8, 16},     // exact tiles, small path
	{17, 9, 33},    // ragged, small path
	{64, 64, 64},   // exact tiles, blocked path
	{65, 66, 67},   // ragged everywhere, blocked path
	{48, 130, 96},  // n ragged vs NR
	{130, 33, 258}, // m, k ragged; k spans two KC panels at KC=256? (k=33) — n=258 spans tiles
	{257, 70, 300}, // m spans two MC blocks with a ragged tail
}

// TestBlockedMatchesNaive pins the tentpole's correctness contract per
// dtype: the cache-blocked, register-tiled (and on amd64, SIMD) kernels
// produce bit-identical results to the pre-blocking naive loops, on
// shapes including ragged tails.
func TestBlockedMatchesNaive(t *testing.T) {
	for _, dt := range []DType{Float64, Float32} {
		rng := rand.New(rand.NewSource(7))
		for _, d := range matmulGrid {
			m, k, n := d[0], d[1], d[2]
			a := randOf(rng, dt, m, k)
			b := randOf(rng, dt, k, n)
			at := Transpose(a)
			bt := Transpose(b)

			got := MatMul(a, b)
			want := NewOf(dt, m, n)
			NaiveMatMulInto(want, a, b)
			bitEqual(t, dt.String()+" MatMul", got, want)

			got = MatMulT1(at, b)
			want = NewOf(dt, m, n)
			NaiveMatMulT1Into(want, at, b)
			bitEqual(t, dt.String()+" MatMulT1", got, want)

			got = MatMulT2(a, bt)
			want = NewOf(dt, m, n)
			NaiveMatMulT2Into(want, a, bt)
			bitEqual(t, dt.String()+" MatMulT2", got, want)
		}
	}
}

// TestMatMulAccumulates pins the += contract of MatMulInto/MatMulT1Into
// (dst need only be zero by convention; the kernel must accumulate into
// whatever is there, which the engines' tape reuse relies on).
func TestMatMulAccumulates(t *testing.T) {
	for _, dt := range []DType{Float64, Float32} {
		rng := rand.New(rand.NewSource(3))
		a := randOf(rng, dt, 65, 66)
		b := randOf(rng, dt, 66, 67)
		seed := randOf(rng, dt, 65, 67)

		got := seed.Clone()
		MatMulInto(got, a, b)
		want := seed.Clone()
		NaiveMatMulInto(want, a, b)
		bitEqual(t, dt.String()+" accumulate", got, want)
	}
}

// TestIntoVariantsMatchAllocating pins that the Into kernels (used by the
// activation-tape arenas) agree with their allocating counterparts.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randOf(rng, Float64, 17, 9), randOf(rng, Float64, 9, 13)
	at, bt := Transpose(a), Transpose(b)

	for _, c := range []struct {
		name string
		want *Tensor
		into func(dst *Tensor)
	}{
		{"MatMulInto", MatMul(a, b), func(d *Tensor) { MatMulInto(d, a, b) }},
		{"MatMulT1Into", MatMulT1(at, b), func(d *Tensor) { MatMulT1Into(d, at, b) }},
		{"MatMulT2Into", MatMulT2(a, bt), func(d *Tensor) { MatMulT2Into(d, a, bt) }},
		{"SoftmaxRowsInto", SoftmaxRows(a), func(d *Tensor) { SoftmaxRowsInto(d.Reshape(17, 9), a) }},
	} {
		dst := New(c.want.Shape...)
		c.into(dst)
		bitEqual(t, c.name, dst, c.want)
	}
}

// TestKernelsAreLeafCalls pins that a kernel call is a plain loop on the
// calling goroutine: no closure, goroutine or WaitGroup under it, so no
// allocation — on the direct and the blocked matmul path (whose pack
// scratch comes from a warm pool) and in the softmax, per dtype. The
// pipeline's stage workers are the only parallelism; a row split growing
// back under the kernels shows up here as its escaping closures.
func TestKernelsAreLeafCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	for _, dt := range []DType{Float64, Float32} {
		for _, d := range [][3]int{{8, 16, 16}, {64, 128, 128}} { // direct, blocked
			m, k, n := d[0], d[1], d[2]
			a, b := randOf(rng, dt, m, k), randOf(rng, dt, k, n)
			at, bt := Transpose(a), Transpose(b)
			dst := NewOf(dt, m, n)
			for _, c := range []struct {
				name string
				call func()
			}{
				{"MatMulInto", func() { MatMulInto(dst, a, b) }},
				{"MatMulT1Into", func() { MatMulT1Into(dst, at, b) }},
				{"MatMulT2Into", func() { MatMulT2Into(dst, a, bt) }},
			} {
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

// TestAt2Set2 pins the fast paths against the variadic originals and
// asserts they do not allocate (the variadic forms box their index slice
// on hot paths like gradcheck).
func TestAt2Set2(t *testing.T) {
	for _, dt := range []DType{Float64, Float32} {
		x := NewOf(dt, 5, 7)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 5; i++ {
			for j := 0; j < 7; j++ {
				v := float64(rng.Intn(100))
				x.Set2(v, i, j)
				if got := x.At(i, j); got != v {
					t.Fatalf("%s Set2/At mismatch at (%d,%d): %v vs %v", dt, i, j, got, v)
				}
				if got := x.At2(i, j); got != v {
					t.Fatalf("%s At2 mismatch at (%d,%d): %v vs %v", dt, i, j, got, v)
				}
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			x.Set2(x.At2(1, 2)+1, 3, 4)
		})
		if allocs != 0 {
			t.Fatalf("%s At2/Set2 allocated %.1f times per op, want 0", dt, allocs)
		}
	}
}

func benchMatMul(b *testing.B, dt DType, n int) {
	rng := rand.New(rand.NewSource(1))
	x := randOf(rng, dt, n, n)
	y := randOf(rng, dt, n, n)
	dst := NewOf(dt, n, n)
	// Bytes per op: the three operand arrays once each (the useful
	// traffic float32 halves); GFLOP/s is the kernel throughput metric.
	b.SetBytes(int64(3 * n * n * dt.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		MatMulInto(dst, x, y)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMul64_128(b *testing.B) { benchMatMul(b, Float64, 128) }
func BenchmarkMatMul64_256(b *testing.B) { benchMatMul(b, Float64, 256) }
func BenchmarkMatMul64_512(b *testing.B) { benchMatMul(b, Float64, 512) }
func BenchmarkMatMul32_128(b *testing.B) { benchMatMul(b, Float32, 128) }
func BenchmarkMatMul32_256(b *testing.B) { benchMatMul(b, Float32, 256) }
func BenchmarkMatMul32_512(b *testing.B) { benchMatMul(b, Float32, 512) }

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

func BenchmarkAt2(b *testing.B) {
	x := New(64, 64)
	b.ReportAllocs()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += x.At2(i%64, (i+1)%64)
	}
	_ = s
}

func BenchmarkAtVariadic(b *testing.B) {
	x := New(64, 64)
	b.ReportAllocs()
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += x.At(i%64, (i+1)%64)
	}
	_ = s
}

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
