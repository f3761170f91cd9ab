package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// geluInputs returns the x values the GELU kernels are held to their twin
// on: a dense sweep over the range where the gate moves, ±0, ±Inf, NaN,
// subnormals, the float32 maximum, a few ulps either side of the points
// where |2u| crosses 708 (the exp's saturation), and random bit patterns.
func geluInputs(rng *rand.Rand, dt DType) []float64 {
	var xs []float64
	for i := -1 << 15; i < 1<<15; i++ {
		xs = append(xs, float64(i)/(1<<10)) // [−32, 32)
	}
	xs = append(xs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022)
	// The saturation edge: the x ≥ 0 where 2·geluU(x) = 708, by bisection.
	lo, hi := 0.0, 64.0
	for lo < hi && math.Nextafter(lo, hi) < hi {
		if mid := (lo + hi) / 2; 2*geluU(mid) < -expLo {
			lo = mid
		} else {
			hi = mid
		}
	}
	for _, edge := range []float64{lo, float64(float32(lo))} {
		a, b := edge, edge
		for i := 0; i < 4; i++ {
			xs = append(xs, a, -a, b, -b)
			a, b = math.Nextafter(a, 0), math.Nextafter(b, math.Inf(1))
		}
	}
	for i := 0; i < 1<<16; i++ {
		if dt == Float32 {
			xs = append(xs, float64(math.Float32frombits(rng.Uint32())))
		} else {
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
	}
	return xs
}

// sameResult reports whether got and want are the same float64 bits, or
// both NaN: x86 returns the first operand of two NaNs, and which operand
// gc puts first in a commutative multiply is its choice, so a NaN's sign
// and payload are not part of the contract. Every non-NaN bit is.
func sameResult(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// checkGELUAgainstTwin runs GELUInto and GELUGradInto over xs (and over
// every length-1…7 tail, alone and after a full vector) and requires each
// element to equal the Go twin's result.
func checkGELUAgainstTwin(t *testing.T, dt DType, xs []float64, rng *rand.Rand) {
	t.Helper()
	dys := make([]float64, len(xs))
	for i := range dys {
		dys[i] = rng.NormFloat64()
	}
	copy(dys, []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)})
	check := func(xs, dys []float64) {
		t.Helper()
		x, dy := NewOf(dt, len(xs)), NewOf(dt, len(xs))
		for i := range xs {
			x.SetFlat(i, xs[i])
			dy.SetFlat(i, dys[i])
		}
		fwd, bwd := NewLike(x), NewLike(x)
		GELUInto(fwd, x)
		GELUGradInto(bwd, dy, x)
		round := func(v float64) float64 { return v }
		if dt == Float32 {
			round = func(v float64) float64 { return float64(float32(v)) }
		}
		for i := range xs {
			v := x.FlatAt(i)
			if want := round(geluAt(v)); !sameResult(fwd.FlatAt(i), want) {
				t.Fatalf("%s GELU(%v) [%d of %d] = %v (%#x), twin %v (%#x)", dt, v, i, len(xs),
					fwd.FlatAt(i), math.Float64bits(fwd.FlatAt(i)), want, math.Float64bits(want))
			}
			if want := round(dy.FlatAt(i) * geluGradAt(v)); !sameResult(bwd.FlatAt(i), want) {
				t.Fatalf("%s %v·GELU'(%v) [%d of %d] = %v (%#x), twin %v (%#x)", dt, dy.FlatAt(i), v, i, len(xs),
					bwd.FlatAt(i), math.Float64bits(bwd.FlatAt(i)), want, math.Float64bits(want))
			}
		}
	}
	check(xs, dys)
	for n := 1; n < geluLanes; n++ {
		check(xs[len(xs)-n:], dys[:n])
		check(xs[:geluLanes+n], dys[len(dys)-geluLanes-n:])
	}
}

// TestGELUKernelLevelsMatchTwin holds the GELU kernels at every level
// this host can run to the Go twin, bit for bit, in both dtypes and both
// passes. On amd64 with AVX-512 that is the assembly; at the other levels
// the twin runs itself, which pins the dispatch. A level the host lacks is
// skipped by name.
func TestGELUKernelLevelsMatchTwin(t *testing.T) {
	for _, l := range kernelLevels {
		t.Run(l.name, func(t *testing.T) {
			if !l.hostHas() {
				t.Skipf("this host cannot run the %s kernels", l.name)
			}
			l.run(func() {
				for _, dt := range []DType{Float64, Float32} {
					rng := rand.New(rand.NewSource(41))
					checkGELUAgainstTwin(t, dt, geluInputs(rng, dt), rng)
				}
			})
		})
	}
}

// ulps returns how many float64 values lie between two finite positives.
func ulps(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// TestOwnedExpAccuracy pins the owned exp to math.Exp within 2 ulp on a
// dense sweep of [expLo, 0], its edges and special values, and σ(2u) to
// 0.5(1 + math.Tanh(u)) within 2.3e-16 absolute.
func TestOwnedExpAccuracy(t *testing.T) {
	worst, at := uint64(0), 0.0
	const n = 1 << 20
	for i := 0; i <= n; i++ {
		x := expLo * float64(i) / n
		if d := ulps(expNonPos(x), math.Exp(x)); d > worst {
			worst, at = d, x
		}
	}
	t.Logf("expNonPos: worst %d ulp from math.Exp, at x = %v", worst, at)
	if worst > 2 {
		t.Errorf("expNonPos(%v) is %d ulp from math.Exp, want ≤ 2", at, worst)
	}
	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {math.Copysign(0, -1), 1}, {-0x1p-60, 1},
		{math.Nextafter(expLo, math.Inf(-1)), 0}, {-745, 0}, {math.Inf(-1), 0},
	} {
		if got := expNonPos(c.x); got != c.want {
			t.Errorf("expNonPos(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := expNonPos(math.NaN()); !math.IsNaN(got) {
		t.Errorf("expNonPos(NaN) = %v, want NaN", got)
	}

	maxErr, atU := 0.0, 0.0
	for i := -1 << 20; i <= 1<<20; i++ {
		u := float64(i) / (1 << 15) // [−32, 32]
		if d := math.Abs(sigmoid2(u) - 0.5*(1+math.Tanh(u))); d > maxErr {
			maxErr, atU = d, u
		}
	}
	t.Logf("σ(2u): worst %.3g from 0.5(1 + tanh u), at u = %v", maxErr, atU)
	if maxErr > 2.3e-16 {
		t.Errorf("σ(2u) at u = %v is %.3g from 0.5(1 + tanh u), want ≤ 2.3e-16", atU, maxErr)
	}
	for _, u := range []float64{-400, -354.01, 354.01, 400, math.Inf(-1), math.Inf(1)} {
		if want := 0.5 * (1 + math.Tanh(u)); sigmoid2(u) != want {
			t.Errorf("σ(2·%v) = %v, want exactly %v", u, sigmoid2(u), want)
		}
	}
}

// BenchmarkGELU times GELUInto and GELUGradInto at the transformer's
// feed-forward shape (28×512), per kernel level the host has and per
// dtype. Sub-benchmark names read level/dtype/pass.
func BenchmarkGELU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range kernelLevels {
		if !l.hostHas() {
			continue
		}
		for _, dt := range []DType{Float64, Float32} {
			x, dy := randOf(rng, dt, 28, 512), randOf(rng, dt, 28, 512)
			dst := NewLike(x)
			for _, c := range []struct {
				name string
				call func()
			}{
				{"fwd", func() { GELUInto(dst, x) }},
				{"bwd", func() { GELUGradInto(dst, dy, x) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/%s", l.name, dt, c.name), func(b *testing.B) {
					l.run(func() {
						for i := 0; i < b.N; i++ {
							c.call()
						}
					})
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Size()), "ns/elem")
				})
			}
		}
	}
}
