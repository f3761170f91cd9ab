package tensor

import (
	"fmt"
	"math"
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

// bitEqual requires got and want to hold the same bits: −0 differs from
// +0, and a NaN equals only a NaN with its payload.
func bitEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.DType() != want.DType() || !got.SameShape(want) {
		t.Fatalf("%s: shape/dtype mismatch %v vs %v", name, got, want)
	}
	for i := range got.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.data[i], want.data[i])
		}
	}
	for i := range got.data32 {
		if math.Float32bits(got.data32[i]) != math.Float32bits(want.data32[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, got.data32[i], want.data32[i])
		}
	}
}

// matmulGrid holds (m, k, n) shapes that put every branch of the loop nest
// on both sides of its boundary: full 4×16 tiles and ragged tails in m and
// n, n on both sides of the tile and of its 8-column half (a ragged tile
// of 8–15 columns runs a 4×8 kernel on its first eight), shapes with no
// full tile at all, k across the KC panel boundary (the store/reload of a
// tile between two p-panels), n across the NC boundary, and m on both
// sides of mcBlock, where a row-major B goes from being read in place to
// being copied into the panel.
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
	{20, 300, 24},   // a tile and a half-tile, k spans two KC panels
}

func init() {
	// n straddling the tile (16) and its half (8), from a row tail up to
	// a transformer microbatch; the vocab head is 28×128×13.
	for _, m := range []int{1, 3, 4, 28} {
		for _, n := range []int{8, 13, 15, 16, 17, 24, 31, 33} {
			matmulGrid = append(matmulGrid, [3]int{m, 2*m + 5, n})
		}
	}
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

// kernelLevel is one microkernel level a host may run: the values of the
// two detection flags on a host of that level.
type kernelLevel struct {
	name         string
	simd, avx512 bool
}

// kernelLevels lists the levels best first: the 4×16 AVX-512 kernel, the
// 4×8 AVX kernel on each half of a tile, and the Go twin of the 4×8
// kernel that every non-AVX and non-amd64 host runs.
var kernelLevels = []kernelLevel{
	{"avx512", true, true},
	{"avx", true, false},
	{"generic", false, false},
}

// hostHas reports whether this host can run every kernel the level uses.
func (l kernelLevel) hostHas() bool {
	return (!l.simd || haveSIMD) && (!l.avx512 || haveAVX512)
}

// TestKernelLevelsMatchNaive holds every kernel level this host can run to
// the naive oracle, bit for bit, on the same grid. A level the host lacks
// is skipped by name, so the log says which levels ran.
func TestKernelLevelsMatchNaive(t *testing.T) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() { checkGridAgainstNaive(t) })
		})
	}
}

// TestBlockedMatchesNaive pins the kernels' correctness contract per
// dtype: the cache-blocked, register-tiled (and on amd64, SIMD) loop nest
// produces bit-identical results to the naive loops on every shape class
// of matmulGrid.
func TestBlockedMatchesNaive(t *testing.T) { checkGridAgainstNaive(t) }

// overwriteShapes are the (m, k, n) shapes the destination-contract tests
// run: ragged and exact tiles, no full tile, k across one and two KC
// panel boundaries (the later panels load what the first stored), and
// k = 0, the empty sum.
var overwriteShapes = [][3]int{
	{1, 1, 1}, {3, 5, 7}, {4, 8, 16}, {17, 9, 33}, {28, 128, 13}, {7, 32, 7},
	{65, 66, 67}, {21, 300, 35}, {13, 513, 19}, {130, 33, 258},
	{5, 0, 7}, {16, 0, 16},
}

// garbage fills t with NaN, ±Inf, ±0 and random values in turn.
func garbage(rng *rand.Rand, t *Tensor) {
	for i := 0; i < t.Size(); i++ {
		t.SetFlat(i, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, rng.NormFloat64()}[i%6])
	}
}

// TestMatMulOverwritesAtEveryKernelLevel pins the overwrite contract:
// MatMulInto, MatMulT1Into and MatMulT2Into ignore what dst holds — NaN,
// ±Inf, −0, anything — and leave the bits of the naive product into
// zeros, at every kernel level the host has.
func TestMatMulOverwritesAtEveryKernelLevel(t *testing.T) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				for _, dt := range []DType{Float64, Float32} {
					rng := rand.New(rand.NewSource(17))
					for _, d := range overwriteShapes {
						m, k, n := d[0], d[1], d[2]
						name := fmt.Sprintf("%s %dx%dx%d ", dt, m, k, n)
						a, b := randOf(rng, dt, m, k), randOf(rng, dt, k, n)
						want := NewOf(dt, m, n)
						NaiveMatMulInto(want, a, b)
						for _, c := range []struct {
							name string
							call func(dst *Tensor)
						}{
							{"MatMul", func(dst *Tensor) { MatMulInto(dst, a, b) }},
							{"MatMulT1", func(dst *Tensor) { MatMulT1Into(dst, transposed(a), b) }},
							{"MatMulT2", func(dst *Tensor) { MatMulT2Into(dst, a, transposed(b)) }},
						} {
							got := NewOf(dt, m, n)
							garbage(rng, got)
							c.call(got)
							bitEqual(t, name+c.name, got, want)
						}
					}
				}
			})
		})
	}
}

// TestMatMulT1AddIntoFoldsAtEveryKernelLevel pins the fold: dst += aᵀb
// leaves exactly the bits of the naive product into a zeroed temporary
// followed by one AddInto — with dst holding ±0, ±Inf and NaN, operands
// holding NaN, a row of A all zero (its sums are +0, which turn a −0 in
// dst into +0), k past one and two KC panels (the pooled temporary) and
// k = 0 — at every kernel level the host has.
func TestMatMulT1AddIntoFoldsAtEveryKernelLevel(t *testing.T) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				for _, dt := range []DType{Float64, Float32} {
					rng := rand.New(rand.NewSource(19))
					for _, d := range overwriteShapes {
						m, k, n := d[0], d[1], d[2]
						at, b := randOf(rng, dt, k, m), randOf(rng, dt, k, n)
						for p := 0; p < k; p++ {
							at.SetFlat(p*m, 0) // row 0 of A
						}
						if k > 0 && m*n > 1 {
							at.SetFlat(at.Size()-1, math.NaN())
							b.SetFlat(b.Size()/2, math.NaN())
						}
						sum := NewOf(dt, m, n)
						NaiveMatMulT1Into(sum, at, b)
						got := NewOf(dt, m, n)
						garbage(rng, got)
						want := got.Clone()
						AddInto(want, sum)
						MatMulT1AddInto(got, at, b)
						bitEqual(t, fmt.Sprintf("%s %dx%dx%d fold", dt, m, k, n), got, want)
					}
				}
			})
		})
	}
}

// TestEdgeKernelLevelsMatchNaive holds microEdge — the masked kernel on
// AVX-512, the 4×8 kernel and scalar tail elsewhere — to a scalar oracle
// on every tile shape (mr, nr) in [1,4]×[1,16], and microFull on 4×16,
// over kc ∈ {1, 7, 32, 256}, in all three C modes, both dtypes and both
// A walks (row-major and transposed), at every kernel level the host has. The tile sits in a larger C whose other rows and
// columns must come back untouched: a kernel that writes past mr or nr,
// or computes a row at or past mr from that row's own A, fails here.
func TestEdgeKernelLevelsMatchNaive(t *testing.T) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				rng := rand.New(rand.NewSource(23))
				for _, dt := range []DType{Float64, Float32} {
					for _, kc := range []int{1, 7, 32, 256} {
						a := randOf(rng, dt, mrTile, kc)
						b := randOf(rng, dt, kc, edgeBps)
						c := randOf(rng, dt, mrTile, edgeLdc)
						if dt == Float32 {
							checkEdgeTiles(t, F32(c), F32(a), F32(b), kc)
						} else {
							checkEdgeTiles(t, F64(c), F64(a), F64(b), kc)
						}
					}
				}
			})
		})
	}
}

// sameBits reports whether x and y hold the same bits.
func sameBits[T Elem](x, y T) bool {
	if xf, ok := any(x).(float32); ok {
		return math.Float32bits(xf) == math.Float32bits(any(y).(float32))
	}
	return math.Float64bits(any(x).(float64)) == math.Float64bits(any(y).(float64))
}

// The edge grid's C row stride and B step stride: wider than a tile, so
// columns past nr exist in both and must stay unread and unwritten.
const edgeLdc, edgeBps = nrTile + 3, nrTile + 5

func checkEdgeTiles[T Elem](t *testing.T, c0, a, b []T, kc int) {
	t.Helper()
	c, want := make([]T, len(c0)), make([]T, len(c0))
	for _, walk := range [][2]int{{kc, 1}, {1, mrTile}} {
		ars, aps := walk[0], walk[1]
		for mode := cLoad; mode <= cFold; mode++ {
			for mr := 1; mr <= mrTile; mr++ {
				for nr := 1; nr <= nrTile; nr++ {
					copy(want, c0)
					for r := 0; r < mr; r++ {
						for j := 0; j < nr; j++ {
							var s T
							if mode == cLoad {
								s = want[r*edgeLdc+j]
							}
							for p := 0; p < kc; p++ {
								s += T(a[r*ars+p*aps] * b[p*edgeBps+j])
							}
							if mode == cFold {
								s = want[r*edgeLdc+j] + s
							}
							want[r*edgeLdc+j] = s
						}
					}
					kernels := map[string]func(){"microEdge": func() {
						microEdge(c, edgeLdc, a, ars, aps, b, edgeBps, kc, mode, mr, nr)
					}}
					if mr == mrTile && nr == nrTile {
						kernels["microFull"] = func() { microFull(c, edgeLdc, a, ars, aps, b, edgeBps, kc, mode) }
					}
					for name, run := range kernels {
						copy(c, c0)
						run()
						for i := range c {
							if !sameBits(c[i], want[i]) {
								t.Fatalf("%s %T kc=%d ars=%d mode=%d %dx%d tile: C[%d][%d] = %v, want %v",
									name, c[0], kc, ars, mode, mr, nr, i/edgeLdc, i%edgeLdc, c[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelsAreLeafCalls pins that a kernel call is a plain loop on the
// calling goroutine: no closure, goroutine or WaitGroup under it, so no
// allocation — at the shapes the workloads run (all with k ≤ kcBlock, so
// MatMulT1AddInto folds in the kernel, with no temporary) and in the
// softmax, GELU and the row kernels, per dtype. It also pins who copies
// B: a short row-major product (8×16·16×16, 28×128·128×128, the vocab
// head's 28×128·128×13, NN, T1 and the T1 fold) reads both operands in
// place and never touches the panel pool; T2, and NN from mcBlock rows on, take
// their panel from the warm pool. The pipeline's stage workers are the
// only parallelism; a row split growing back under the kernels shows up
// here as its escaping closures.
func TestKernelsAreLeafCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	// One P, so a panel this goroutine Puts is the one its next Get finds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(13))
	for _, dt := range []DType{Float64, Float32} {
		for _, d := range [][3]int{{8, 16, 16}, {28, 128, 128}, {28, 128, 13}, {128, 128, 128}} {
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
				{"MatMulT1AddInto", m >= mcBlock, func() { MatMulT1AddInto(dst, at, b) }},
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
		y, xhat := NewLike(x), NewLike(x)
		v, vg := randOf(rng, dt, 128), randOf(rng, dt, 128)
		invStd := make([]float64, 64)
		for name, call := range map[string]func(){
			"SoftmaxRowsInto":   func() { SoftmaxRowsInto(y, x) },
			"GELUInto":          func() { GELUInto(y, x) },
			"GELUGradInto":      func() { GELUGradInto(y, x, x) },
			"LayerNormInto":     func() { LayerNormInto(y, xhat, x, v, v, invStd, 1e-5) },
			"LayerNormGradInto": func() { LayerNormGradInto(y, x, xhat, v, vg, vg, invStd) },
			"ReLUInto":          func() { ReLUInto(y, x) },
			"ReLUGradInto":      func() { ReLUGradInto(y, x, x) },
			"SumInto":           func() { SumInto(y, x, x) },
			"AddBiasRows":       func() { AddBiasRows(y, v) },
			"FoldColSums":       func() { FoldColSums(vg, x) },
		} {
			if allocs := testing.AllocsPerRun(50, call); allocs != 0 {
				t.Errorf("%s %s allocated %.1f times per call, want 0", dt, name, allocs)
			}
		}
	}
}

// TestIm2ColDtypes pins Im2ColInto/Col2ImInto float32 against the float64
// path on integer-valued data, where both dtypes are exact, into
// NaN-filled destinations, which both must overwrite.
func TestIm2ColDtypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x64 := New(2, 3, 9, 9)
	x32 := NewOf(Float32, 2, 3, 9, 9)
	for i := 0; i < x64.Size(); i++ {
		v := float64(rng.Intn(17) - 8)
		x64.SetFlat(i, v)
		x32.SetFlat(i, v)
	}
	c64, c32 := New(2*5*5, 3*3*3), NewOf(Float32, 2*5*5, 3*3*3)
	i64, i32 := New(2, 3, 9, 9), NewOf(Float32, 2, 3, 9, 9)
	for _, d := range []*Tensor{c64, c32, i64, i32} {
		d.Fill(math.NaN())
	}
	Im2ColInto(c64, x64, 3, 3, 2, 1)
	Im2ColInto(c32, x32, 3, 3, 2, 1)
	for i := 0; i < c64.Size(); i++ {
		if c64.FlatAt(i) != c32.FlatAt(i) {
			t.Fatalf("Im2Col element %d: %v vs %v", i, c64.FlatAt(i), c32.FlatAt(i))
		}
	}
	Col2ImInto(i64, c64, 3, 3, 2, 1)
	Col2ImInto(i32, c32, 3, 3, 2, 1)
	for i := 0; i < i64.Size(); i++ {
		if i64.FlatAt(i) != i32.FlatAt(i) {
			t.Fatalf("Col2Im element %d: %v vs %v", i, i64.FlatAt(i), i32.FlatAt(i))
		}
	}
}

// BenchmarkMatMulShapes measures the three variants, the T1 fold and T2
// from a panel packed beforehand (T2Panel: a forward slot's product once
// its weight version is packed), at
// every kernel level the host has, at the shapes the trainers run — a
// P=107 residual-MLP slot (8×16·16×16), a transformer microbatch through
// a projection, the vocab head and the two feed-forward halves (28 rows),
// an attention head's score and value products (7×32·32×7, 7×7·7×32), a
// Linear's weight gradient (128×28·28×128 and 512×28·28×128 as T1Add), an
// im2col-shaped conv product (tall, thin) — and at three cubes, the guard
// that the large-shape peak holds. Sub-benchmark names read
// level/dtype/m x k x n/variant.
func BenchmarkMatMulShapes(b *testing.B) {
	shapes := [][3]int{
		{8, 16, 16}, {28, 128, 128}, {28, 128, 13}, {28, 128, 512}, {28, 512, 128},
		{7, 32, 7}, {7, 7, 32}, {128, 28, 128}, {512, 28, 128}, {512, 27, 16},
		{128, 128, 128}, {256, 256, 256}, {512, 512, 512},
	}
	for _, l := range kernelLevels {
		if !l.hostHas() {
			continue
		}
		rng := rand.New(rand.NewSource(1))
		for _, dt := range []DType{Float64, Float32} {
			for _, d := range shapes {
				m, k, n := d[0], d[1], d[2]
				x, y := randOf(rng, dt, m, k), randOf(rng, dt, k, n)
				xt, yt := transposed(x), transposed(y)
				dst := NewOf(dt, m, n)
				pn := PackT2(yt)
				for _, c := range []struct {
					name string
					call func()
				}{
					{"NN", func() { MatMulInto(dst, x, y) }},
					{"T1", func() { MatMulT1Into(dst, xt, y) }},
					{"T1Add", func() { MatMulT1AddInto(dst, xt, y) }},
					{"T2", func() { MatMulT2Into(dst, x, yt) }},
					{"T2Panel", func() { MatMulT2PanelInto(dst, x, &pn) }},
				} {
					b.Run(fmt.Sprintf("%s/%s/%dx%dx%d/%s", l.name, dt, m, k, n, c.name), func(b *testing.B) {
						l.run(func() {
							for i := 0; i < b.N; i++ {
								c.call()
							}
						})
						flops := 2 * float64(m) * float64(k) * float64(n)
						b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
				pn.Release()
			}
		}
	}
}

// BenchmarkMicrokernel times one tile alone, per kernel level the host
// has and per dtype, on one L1-resident panel: a tile over kcBlock steps
// of a packed B group, with no loop nest around it. The full 4×16 tile's
// GFLOP/s is the kernel's measured peak, the ceiling
// tensor.matmul_*_gflops are read against; the 4×7 and 4×13 edge tiles
// (the masked kernel on AVX-512, the 4×8 kernel and scalar tail
// elsewhere) are what an attention head and the vocab head run.
// Sub-benchmark names read level/dtype/mr x nr.
func BenchmarkMicrokernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range kernelLevels {
		if !l.hostHas() {
			continue
		}
		for _, dt := range []DType{Float64, Float32} {
			a := randOf(rng, dt, mrTile, kcBlock)
			bp := randOf(rng, dt, kcBlock, nrTile)
			c := NewOf(dt, mrTile, nrTile)
			for _, nr := range []int{nrTile, 7, 13} {
				b.Run(fmt.Sprintf("%s/%s/%dx%d", l.name, dt, mrTile, nr), func(b *testing.B) {
					l.run(func() {
						if dt == Float32 {
							benchTile(b, F32(c), F32(a), F32(bp), nr)
						} else {
							benchTile(b, F64(c), F64(a), F64(bp), nr)
						}
					})
					flops := 2 * float64(mrTile*nr*kcBlock)
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

func benchTile[T Elem](b *testing.B, c, a, bp []T, nr int) {
	for i := 0; i < b.N; i++ {
		if nr == nrTile {
			microFull(c, nrTile, a, kcBlock, 1, bp, nrTile, kcBlock, cZero)
		} else {
			microEdge(c, nrTile, a, kcBlock, 1, bp, nrTile, kcBlock, cZero, mrTile, nr)
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
