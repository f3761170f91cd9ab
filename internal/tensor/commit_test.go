package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// commitLengths are the vector lengths the commit kernels are held to
// their twins on: every length up to two float32 T2 vectors and one
// past, then 1000 and 1000 plus each tail 1–7.
var commitLengths = func() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	for n := 1000; n <= 1007; n++ {
		ns = append(ns, n)
	}
	return ns
}()

// commitValues draws n values for one operand: mostly normal draws scaled
// by scale, with random bit patterns of the dtype and the given special
// values mixed in.
func commitValues(rng *rand.Rand, dt DType, n int, scale float64, special []float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r := rng.Intn(10); {
		case r == 0 && len(special) > 0:
			xs[i] = special[rng.Intn(len(special))]
		case r == 1 && dt == Float32:
			xs[i] = float64(math.Float32frombits(rng.Uint32()))
		case r == 1:
			xs[i] = math.Float64frombits(rng.Uint64())
		default:
			xs[i] = scale * rng.NormFloat64()
		}
	}
	return xs
}

// finiteSpecials are ±0 and subnormals of both dtypes; gradSpecials add
// NaN and ±Inf.
var (
	finiteSpecials = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1030,
		math.SmallestNonzeroFloat32, -0x1p-140, 0x1p-1022}
	gradSpecials = append(append([]float64(nil), finiteSpecials...), math.NaN(), math.Inf(1), math.Inf(-1))
)

func tensorOf(dt DType, xs []float64) *Tensor {
	t := NewOf(dt, len(xs))
	for i, v := range xs {
		t.SetFlat(i, v)
	}
	return t
}

// sameTensor fails the test at the first element of got that is not
// want's bits (any NaN matching any NaN, as sameResult).
func sameTensor(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	for i := 0; i < want.Size(); i++ {
		if g, w := got.FlatAt(i), want.FlatAt(i); !sameResult(g, w) {
			t.Fatalf("%s [%d of %d] = %v (%#x), twin %v (%#x)", what, i, want.Size(),
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// adamwHypers are the step scalars the AdamW kernels are checked at: the
// transformer recipe's first step, a late step (bias corrections within
// an ulp or so of 1), a zero learning rate (weights unchanged but for a
// non-finite update), and odd betas with a large decay.
var adamwHypers = []struct {
	name                          string
	b1, b2, eps, wd, lr, bc1, bc2 float64
}{
	{"first step", 0.9, 0.98, 1e-9, 0.01, 1e-3, 1 - 0.9, 1 - 0.98},
	{"late step", 0.9, 0.98, 1e-9, 0.01, 3e-4, 1 - math.Pow(0.9, 400), 1 - math.Pow(0.98, 2000)},
	{"lr 0", 0.9, 0.999, 1e-8, 0.1, 0, 1 - 0.9*0.9, 1 - 0.999*0.999},
	{"odd", 0.37, 0.5, 1e-3, 1.5, 0.25, 0.63, 0.5},
}

// TestAdamWKernelLevelsMatchTwin holds AdamWInto at every kernel level
// this host can run to its Go twin, adamwStep, bit for bit: both dtypes,
// every length in commitLengths, random bit patterns, ±0, subnormals and
// NaN/±Inf gradients, at each of adamwHypers. On amd64 with AVX-512 the
// assembly runs the full vectors and the twin the tail; at the other
// levels the twin runs itself, which pins the dispatch.
func TestAdamWKernelLevelsMatchTwin(t *testing.T) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				rng := rand.New(rand.NewSource(43))
				for _, dt := range []DType{Float64, Float32} {
					for _, h := range adamwHypers {
						for _, n := range commitLengths {
							w := tensorOf(dt, commitValues(rng, dt, n, 0.1, finiteSpecials))
							g := tensorOf(dt, commitValues(rng, dt, n, 1, gradSpecials))
							m := tensorOf(dt, commitValues(rng, dt, n, 0.1, finiteSpecials))
							vs := commitValues(rng, dt, n, 0.01, finiteSpecials)
							for i := range vs {
								if rng.Intn(4) != 0 {
									vs[i] = math.Abs(vs[i]) // mostly a real second moment
								}
							}
							v := tensorOf(dt, vs)
							tw, tm, tv := w.Clone(), m.Clone(), v.Clone()
							AdamWInto(w, g, m, v, h.b1, h.b2, h.eps, h.wd, h.lr, h.bc1, h.bc2)
							if dt == Float32 {
								adamwStep(F32(tw), F32(g), F32(tm), F32(tv), h.b1, h.b2, h.eps, h.wd, h.lr, h.bc1, h.bc2)
							} else {
								adamwStep(F64(tw), F64(g), F64(tm), F64(tv), h.b1, h.b2, h.eps, h.wd, h.lr, h.bc1, h.bc2)
							}
							what := fmt.Sprintf("%s %s n=%d", dt, h.name, n)
							sameTensor(t, what+" m", m, tm)
							sameTensor(t, what+" v", v, tv)
							sameTensor(t, what+" w", w, tw)
						}
					}
				}
			})
		})
	}
}

// TestT2KernelLevelsMatchTwin holds T2Into at every kernel level this
// host can run to its Go twin, t2Update, bit for bit, as
// TestAdamWKernelLevelsMatchTwin does AdamWInto: at γ of 0, a typical
// decay, one just under 1, and τ of 0, a fraction and a large delay.
func TestT2KernelLevelsMatchTwin(t *testing.T) {
	params := []struct{ gamma, tau float64 }{
		{0, 0}, {0.8187307530779818, 1.875}, {0.9999999, 0.125}, {0.5, 13.75},
	}
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				rng := rand.New(rand.NewSource(47))
				for _, dt := range []DType{Float64, Float32} {
					for _, p := range params {
						for _, n := range commitLengths {
							d := tensorOf(dt, commitValues(rng, dt, n, 1e-3, gradSpecials))
							cur := tensorOf(dt, commitValues(rng, dt, n, 0.1, gradSpecials))
							prev := tensorOf(dt, commitValues(rng, dt, n, 0.1, gradSpecials))
							c := tensorOf(dt, commitValues(rng, dt, n, 1, nil)) // overwritten
							td, tc := d.Clone(), c.Clone()
							T2Into(d, c, cur, prev, p.gamma, p.tau)
							if dt == Float32 {
								t2Update(F32(td), F32(tc), F32(cur), F32(prev), p.gamma, p.tau)
							} else {
								t2Update(F64(td), F64(tc), F64(cur), F64(prev), p.gamma, p.tau)
							}
							what := fmt.Sprintf("%s γ=%v τ=%v n=%d", dt, p.gamma, p.tau, n)
							sameTensor(t, what+" d", d, td)
							sameTensor(t, what+" c", c, tc)
						}
					}
				}
			})
		})
	}
}

// TestPackedKernelMatchesMatMulT2 holds the GEMM from a panel to
// MatMulT2Into, bit for bit, at every kernel level this host can run:
// both dtypes, n and k across the NR, kc and nc block edges, and m from
// one row to past the row block. The destination starts as NaN, which
// the overwrite must ignore.
func TestPackedKernelMatchesMatMulT2(t *testing.T) {
	sizes := []int{1, 7, 16, 17, 255, 256, 257, 513}
	rows := []int{1, 4, 28, 128, 129}
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				rng := rand.New(rand.NewSource(53))
				for _, dt := range []DType{Float64, Float32} {
					for _, n := range sizes {
						for _, k := range sizes {
							w := randOf(rng, dt, n, k)
							pn := PackT2(w)
							if !pn.Packs(w) {
								t.Fatalf("%s %dx%d: a panel does not match its own re-pack", dt, n, k)
							}
							for _, m := range rows {
								a := randOf(rng, dt, m, k)
								want, got := NewOf(dt, m, n), NewOf(dt, m, n)
								got.Fill(math.NaN())
								MatMulT2Into(want, a, w)
								MatMulT2PanelInto(got, a, &pn)
								sameTensor(t, fmt.Sprintf("%s %dx%d·(%dx%d)ᵀ", dt, m, k, n, k), got, want)
							}
							pn.Release()
						}
					}
				}
			})
		})
	}
}

// BenchmarkAdamW times one AdamW step per kernel level the host has and
// per dtype, over a 128×512 weight (a transformer feed-forward matrix).
func BenchmarkAdamW(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range kernelLevels {
		if !l.hostHas() {
			continue
		}
		for _, dt := range []DType{Float64, Float32} {
			w, g, m := randOf(rng, dt, 128, 512), randOf(rng, dt, 128, 512), randOf(rng, dt, 128, 512)
			v := NewLike(w)
			b.Run(fmt.Sprintf("%s/%s", l.name, dt), func(b *testing.B) {
				l.run(func() {
					for i := 0; i < b.N; i++ {
						AdamWInto(w, g, m, v, 0.9, 0.98, 1e-9, 0.01, 1e-7, 0.1, 0.02)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.Size()), "ns/elem")
			})
		}
	}
}

// BenchmarkT2 is BenchmarkAdamW for T2's discrepancy update.
func BenchmarkT2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range kernelLevels {
		if !l.hostHas() {
			continue
		}
		for _, dt := range []DType{Float64, Float32} {
			d, c := randOf(rng, dt, 128, 512), NewOf(dt, 128, 512)
			cur, prev := randOf(rng, dt, 128, 512), randOf(rng, dt, 128, 512)
			b.Run(fmt.Sprintf("%s/%s", l.name, dt), func(b *testing.B) {
				l.run(func() {
					for i := 0; i < b.N; i++ {
						T2Into(d, c, cur, prev, 0.8, 1.875)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*d.Size()), "ns/elem")
			})
		}
	}
}
