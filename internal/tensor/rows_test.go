package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracles below are the row loops as nn ran them before they moved
// here, kept verbatim: the kernels at every level must reproduce them bit
// for bit.

func oracleLNFwd[T Elem](out, xhat, x, gain, bias []T, invStd []float64, n, d int, eps float64) {
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		mu := 0.0
		for _, v := range row {
			mu += float64(v)
		}
		mu /= float64(d)
		va := 0.0
		for _, v := range row {
			va += float64((float64(v) - mu) * (float64(v) - mu))
		}
		va /= float64(d)
		is := 1 / math.Sqrt(va+eps)
		invStd[i] = is
		for j, v := range row {
			xh := (float64(v) - mu) * is
			xhat[i*d+j] = T(xh)
			out[i*d+j] = T(float64(float64(gain[j])*xh) + float64(bias[j]))
		}
	}
}

func oracleLNBwd[T Elem](out, dy, xhat, gainB, gGrad, bGrad []T, invStd []float64, n, d int) {
	for j := 0; j < d; j++ {
		sg, sb := 0.0, 0.0
		for i := 0; i < n; i++ {
			g := float64(dy[i*d+j])
			sg += float64(g * float64(xhat[i*d+j]))
			sb += g
		}
		gGrad[j] += T(sg)
		bGrad[j] += T(sb)
	}
	for i := 0; i < n; i++ {
		m1, m2 := 0.0, 0.0
		for j := 0; j < d; j++ {
			dx := float64(float64(dy[i*d+j]) * float64(gainB[j]))
			m1 += dx
			m2 += float64(dx * float64(xhat[i*d+j]))
		}
		m1 /= float64(d)
		m2 /= float64(d)
		is := invStd[i]
		for j := 0; j < d; j++ {
			xh := float64(xhat[i*d+j])
			dx := float64(float64(dy[i*d+j]) * float64(gainB[j]))
			out[i*d+j] = T(is * (dx - m1 - float64(xh*m2)))
		}
	}
}

func oracleReLUFwd[T Elem](out, x []T) {
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func oracleReLUBwd[T Elem](out, dy, x []T) {
	for i, v := range dy {
		if x[i] > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func oracleAddRows[T Elem](out, a, b []T) {
	for i := range out {
		out[i] = a[i] + b[i]
	}
}

func oracleAddBiasRows[T Elem](out, b []T, rows, cols int) {
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			row[j] += b[j]
		}
	}
}

func oracleFoldColSums[T Elem](g, dy []T, rows, cols int) {
	for j0 := 0; j0 < cols; j0 += 16 {
		w := min(16, cols-j0)
		var s [16]T
		for i := 0; i < rows; i++ {
			for j, v := range dy[i*cols+j0 : i*cols+j0+w] {
				s[j] += v
			}
		}
		for j, v := range s[:w] {
			g[j0+j] += v
		}
	}
}

// rowShapes are the (n, d) grid the row kernels are held to their oracles
// on: every row count from 1 to one past a block of eight, the
// transformer's 28 and a multiple of the block; columns on either side of
// a float64 vector, of a float32 vector, and of the trainers' widths.
var (
	rowCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 64}
	colCounts = []int{1, 7, 8, 15, 16, 17, 128, 129}
)

// rowSpecials are the non-normal values mixed into the row kernels'
// inputs: ±0, subnormals of both dtypes, ±Inf and NaN.
var rowSpecials = append(append([]float64(nil), finiteSpecials...), math.NaN(), math.Inf(1), math.Inf(-1))

// rowValues draws an (n, d) operand: rows of normal draws at a per-row
// scale and offset (so the mean is not near zero), and one row in three
// (and a vector, n = 1, one time in two) with a special value or a random
// bit pattern in about one place in five. The clean rows keep statistics
// finite, so the comparison sees every bit of them.
func rowValues(rng *rand.Rand, dt DType, n, d int) *Tensor {
	t := NewOf(dt, n, d)
	for i := 0; i < n; i++ {
		scale, off := math.Exp2(float64(rng.Intn(20)-10)), 4*rng.NormFloat64()
		dirty := i%3 == 2 || n == 1 && rng.Intn(2) == 0
		for j := 0; j < d; j++ {
			v := off + scale*rng.NormFloat64()
			if dirty && rng.Intn(5) == 0 {
				if rng.Intn(2) == 0 {
					v = rowSpecials[rng.Intn(len(rowSpecials))]
				} else if dt == Float32 {
					v = float64(math.Float32frombits(rng.Uint32()))
				} else {
					v = math.Float64frombits(rng.Uint64())
				}
			}
			t.SetFlat(i*d+j, v)
		}
	}
	return t
}

// poisoned returns a tensor like t filled with NaN, and nanFloats a NaN
// slice: destinations the kernels must overwrite everywhere.
func poisoned(t *Tensor) *Tensor {
	p := NewLike(t)
	p.Fill(math.NaN())
	return p
}

func nanFloats(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("%s [%d of %d] = %v (%#x), oracle %v (%#x)", what, i, len(want),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameTensorBits is sameTensor with NaN payloads compared too: for a kernel
// that only moves values (ReLU), every bit is part of the contract.
func sameTensorBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	for i := 0; i < want.Size(); i++ {
		if g, w := got.FlatAt(i), want.FlatAt(i); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s [%d of %d] = %v (%#x), oracle %v (%#x)", what, i, want.Size(),
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// forEachLevel runs f at every kernel level this host can run, as a
// subtest named after the level (a level the host lacks is skipped by
// name), once per dtype and (n, d) of the row grid, each case with its
// own random stream.
func forEachLevel(t *testing.T, seed int64, f func(t *testing.T, rng *rand.Rand, dt DType, n, d int)) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				for _, dt := range []DType{Float64, Float32} {
					for _, n := range rowCounts {
						for _, d := range colCounts {
							f(t, rand.New(rand.NewSource(seed+int64(1000*n+d))), dt, n, d)
						}
					}
				}
			})
		})
	}
}

// TestLayerNormKernelLevelsMatchTwin holds LayerNormInto and
// LayerNormGradInto at every kernel level this host can run to the
// oracle, bit for bit, in both dtypes over the row grid, with NaN, ±Inf,
// ±0, subnormals and random bit patterns in the input, the gain, the bias
// and the upstream gradient. Every destination starts as NaN but the
// gradients, which the backward folds into.
func TestLayerNormKernelLevelsMatchTwin(t *testing.T) {
	const eps = 1e-5
	forEachLevel(t, 59, func(t *testing.T, rng *rand.Rand, dt DType, n, d int) {
		x := rowValues(rng, dt, n, d)
		gain, bias, gainB := rowValues(rng, dt, 1, d), rowValues(rng, dt, 1, d), rowValues(rng, dt, 1, d)
		what := fmt.Sprintf("%s %dx%d", dt, n, d)

		out, xhat, invStd := poisoned(x), poisoned(x), nanFloats(n)
		wOut, wXhat, wInv := NewLike(x), NewLike(x), make([]float64, n)
		LayerNormInto(out, xhat, x, gain, bias, invStd, eps)
		if dt == Float32 {
			oracleLNFwd(F32(wOut), F32(wXhat), F32(x), F32(gain), F32(bias), wInv, n, d, eps)
		} else {
			oracleLNFwd(F64(wOut), F64(wXhat), F64(x), F64(gain), F64(bias), wInv, n, d, eps)
		}
		sameFloats(t, what+" invStd", invStd, wInv)
		sameTensor(t, what+" xhat", xhat, wXhat)
		sameTensor(t, what+" out", out, wOut)

		dy := rowValues(rng, dt, n, d)
		gGrad, bGrad := rowValues(rng, dt, 1, d), rowValues(rng, dt, 1, d)
		wgGrad, wbGrad := gGrad.Clone(), bGrad.Clone()
		dx, wDx := poisoned(x), NewLike(x)
		LayerNormGradInto(dx, dy, wXhat, gainB, gGrad, bGrad, wInv)
		if dt == Float32 {
			oracleLNBwd(F32(wDx), F32(dy), F32(wXhat), F32(gainB), F32(wgGrad), F32(wbGrad), wInv, n, d)
		} else {
			oracleLNBwd(F64(wDx), F64(dy), F64(wXhat), F64(gainB), F64(wgGrad), F64(wbGrad), wInv, n, d)
		}
		sameTensor(t, what+" dγ", gGrad, wgGrad)
		sameTensor(t, what+" dβ", bGrad, wbGrad)
		sameTensor(t, what+" dx", dx, wDx)
	})
}

// TestReLUKernelLevelsMatchTwin holds ReLUInto and ReLUGradInto at every
// kernel level this host can run to the oracle over the row grid (as flat
// n·d vectors), every bit of every element, NaN payloads included:
// x > 0 gives x, and ±0, negatives and NaN give +0; the backward passes
// dy, whatever it holds, where x > 0.
func TestReLUKernelLevelsMatchTwin(t *testing.T) {
	forEachLevel(t, 61, func(t *testing.T, rng *rand.Rand, dt DType, n, d int) {
		x, dy := rowValues(rng, dt, n, d), rowValues(rng, dt, n, d)
		for i := 0; i < x.Size(); i += 3 {
			x.SetFlat(i, rowSpecials[(i/3)%len(rowSpecials)])
		}
		what := fmt.Sprintf("%s %dx%d", dt, n, d)
		fwd, bwd := poisoned(x), poisoned(x)
		wFwd, wBwd := NewLike(x), NewLike(x)
		ReLUInto(fwd, x)
		ReLUGradInto(bwd, dy, x)
		if dt == Float32 {
			oracleReLUFwd(F32(wFwd), F32(x))
			oracleReLUBwd(F32(wBwd), F32(dy), F32(x))
		} else {
			oracleReLUFwd(F64(wFwd), F64(x))
			oracleReLUBwd(F64(wBwd), F64(dy), F64(x))
		}
		sameTensorBits(t, what+" ReLU", fwd, wFwd)
		sameTensorBits(t, what+" ReLU'", bwd, wBwd)
	})
}

// TestRowAddKernelLevelsMatchTwin holds the one-add row ops at every
// kernel level this host can run to the oracle, bit for bit, over the row
// grid: SumInto (over a NaN destination), AddBiasRows and FoldColSums
// (each adding into its destination).
func TestRowAddKernelLevelsMatchTwin(t *testing.T) {
	forEachLevel(t, 67, func(t *testing.T, rng *rand.Rand, dt DType, n, d int) {
		a, b := rowValues(rng, dt, n, d), rowValues(rng, dt, n, d)
		bias, g := rowValues(rng, dt, 1, d), rowValues(rng, dt, 1, d)
		what := fmt.Sprintf("%s %dx%d", dt, n, d)

		sum, wSum := poisoned(a), NewLike(a)
		SumInto(sum, a, b)
		biased, wBiased := a.Clone(), a.Clone()
		AddBiasRows(biased, bias)
		wg := g.Clone()
		FoldColSums(g, b)
		if dt == Float32 {
			oracleAddRows(F32(wSum), F32(a), F32(b))
			oracleAddBiasRows(F32(wBiased), F32(bias), n, d)
			oracleFoldColSums(F32(wg), F32(b), n, d)
		} else {
			oracleAddRows(F64(wSum), F64(a), F64(b))
			oracleAddBiasRows(F64(wBiased), F64(bias), n, d)
			oracleFoldColSums(F64(wg), F64(b), n, d)
		}
		sameTensor(t, what+" a+b", sum, wSum)
		sameTensor(t, what+" +bias", biased, wBiased)
		sameTensor(t, what+" Σrows", g, wg)
	})
}

// rowBenchShapes are the row kernels' benchmark shapes: the fine-grained
// residual MLP's float64 stage (8×16) and the transformer's float32
// activations (28×128).
var rowBenchShapes = []struct {
	dt   DType
	n, d int
}{{Float64, 8, 16}, {Float32, 28, 128}}

// benchRows times each call per kernel level the host has at every
// rowBenchShapes shape. Sub-benchmark names read level/dtype/n×d/name.
func benchRows(b *testing.B, calls func(rng *rand.Rand, dt DType, n, d int) map[string]func()) {
	for _, l := range kernelLevels {
		if !l.hostHas() {
			continue
		}
		for _, s := range rowBenchShapes {
			cs := calls(rand.New(rand.NewSource(1)), s.dt, s.n, s.d)
			for _, name := range []string{"fwd", "bwd", "sum", "bias", "fold"} {
				call, ok := cs[name]
				if !ok {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/%dx%d/%s", l.name, s.dt, s.n, s.d, name), func(b *testing.B) {
					l.run(func() {
						for i := 0; i < b.N; i++ {
							call()
						}
					})
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n*s.d), "ns/elem")
				})
			}
		}
	}
}

// BenchmarkLayerNorm times LayerNormInto and LayerNormGradInto.
func BenchmarkLayerNorm(b *testing.B) {
	benchRows(b, func(rng *rand.Rand, dt DType, n, d int) map[string]func() {
		x, dy, out, xhat := randOf(rng, dt, n, d), randOf(rng, dt, n, d), NewOf(dt, n, d), NewOf(dt, n, d)
		gain, bias, gg, bg := randOf(rng, dt, d), randOf(rng, dt, d), NewOf(dt, d), NewOf(dt, d)
		invStd := make([]float64, n)
		LayerNormInto(out, xhat, x, gain, bias, invStd, 1e-5)
		return map[string]func(){
			"fwd": func() { LayerNormInto(out, xhat, x, gain, bias, invStd, 1e-5) },
			"bwd": func() { LayerNormGradInto(out, dy, xhat, gain, gg, bg, invStd) },
		}
	})
}

// BenchmarkReLU times ReLUInto and ReLUGradInto.
func BenchmarkReLU(b *testing.B) {
	benchRows(b, func(rng *rand.Rand, dt DType, n, d int) map[string]func() {
		x, dy, out := randOf(rng, dt, n, d), randOf(rng, dt, n, d), NewOf(dt, n, d)
		return map[string]func(){
			"fwd": func() { ReLUInto(out, x) },
			"bwd": func() { ReLUGradInto(out, dy, x) },
		}
	})
}

// BenchmarkRowAdd times SumInto, AddBiasRows and FoldColSums.
func BenchmarkRowAdd(b *testing.B) {
	benchRows(b, func(rng *rand.Rand, dt DType, n, d int) map[string]func() {
		x, y, out := randOf(rng, dt, n, d), randOf(rng, dt, n, d), NewOf(dt, n, d)
		v := randOf(rng, dt, d)
		return map[string]func(){
			"sum":  func() { SumInto(out, x, y) },
			"bias": func() { AddBiasRows(out, v) },
			"fold": func() { FoldColSums(v, x) },
		}
	})
}
