package tensor

import "math"

// The trainer's transcendentals are its own. math.Exp and math.Tanh are
// not the same function on every host: amd64's Exp is assembly that takes
// an FMA path when the CPU has AVX and FMA, and other GOARCHes run the
// portable code. A cluster that must agree bitwise cannot call them, so
// GELU and the softmax family use expNonPos below, written the way the
// GEMM is: a Go twin that is the spec, every product feeding an add
// rounded first (T(a*b), which gc may not fuse), and on AVX-512 hosts an
// assembly kernel (gelu_amd64.s) that performs the same operations in the
// same order, eight float64 lanes at a time, with no FMA. Which one runs
// never changes a bit of a finite result.

const (
	geluA  = 0.044715
	geluA3 = 3 * geluA
	geluC  = 0.7978845608028654 // √(2/π)

	// expLo is where expNonPos stops: below it, e^x < 2^-1021 and the
	// function returns 0. Above it every 2^k the reduction scales by, and
	// every result, is a normal float64, so the scaling multiply is exact.
	expLo = -708

	// geluLanes is the AVX-512 kernels' width: eight float64 lanes.
	geluLanes = 8
)

// expNonPos returns e^x for x ≤ 0: FreeBSD's e_exp.c, as Go's portable
// math.exp and expmulti have it, restricted to x ≤ 0. The reduction
// x = k·ln2 + r takes k = int(log2e·x − 0.5); the polynomial is expmulti's;
// 2^k scales the result by one multiply. It returns 0 below expLo (and for
// −Inf), and NaN for NaN. Within 2 ulp of math.Exp on [expLo, 0]
// (TestOwnedExpAccuracy).
func expNonPos(x float64) float64 {
	const (
		log2e = 1.44269504088896338700e+00
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10

		p1 = 1.66666666666666657415e-01
		p2 = -2.77777777770155933842e-03
		p3 = 6.61375632143793436117e-05
		p4 = -1.65339022054652515390e-06
		p5 = 4.13813679705723846039e-08
	)
	if x < expLo {
		return 0
	}
	k := int(float64(log2e*x) - 0.5)
	kf := float64(k)
	hi := x - float64(kf*ln2Hi)
	lo := float64(kf * ln2Lo)
	r := hi - lo
	t := r * r
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - r*c/(2-c)) - hi)
	return float64(y * math.Float64frombits(uint64(k+1023)<<52))
}

// sigmoid2 returns σ(2u) = 0.5(1 + tanh u) from one exp of −2|u|:
// 1/(1+e) for u ≥ 0, e/(1+e) for u < 0. Past |2u| = 708 the exp is 0, so σ
// is exactly 1 or 0, as 0.5(1 + tanh u) is.
func sigmoid2(u float64) float64 {
	e := expNonPos(float64(-2 * math.Abs(u)))
	if u < 0 {
		return e / (1 + e)
	}
	return 1 / (1 + e)
}

// geluU is GELU's tanh argument √(2/π)(x + 0.044715x³).
func geluU(v float64) float64 { return geluC * (v + float64(geluA*v*v*v)) }

// geluAt is GELU(v) = 0.5v(1 + tanh u) = v·σ(2u): the Go twin of the
// forward kernels.
func geluAt(v float64) float64 { return v * sigmoid2(geluU(v)) }

// geluGradAt is GELU'(v) = σ + 2v·σ(1−σ)·u′ with σ = σ(2u): the Go twin of
// the backward kernels, which multiply it by dy.
func geluGradAt(v float64) float64 {
	s := sigmoid2(geluU(v))
	du := geluC * (1 + float64(geluA3*v*v))
	return s + float64(2*v*s*(1-s)*du)
}

// geluOf, geluGradOf and expDiff are the twin's per-element entries from
// T storage. Each is a call of its own so that, for float32, the widening
// to float64 converts the argument in the register it arrives in. Inline,
// gc converts into whichever register held the previous element's result,
// and since CVTSS2SD keeps that register's upper lanes, every element's
// exp would wait for the one before, which halves the float32 speed.

//go:noinline
func geluOf[T Elem](x T) T { return T(geluAt(float64(x))) }

//go:noinline
func geluGradOf[T Elem](dy, x T) T { return T(float64(dy) * geluGradAt(float64(x))) }

// expDiff returns e^(v−mx) for the softmax family, the difference rounded
// to T first.
//
//go:noinline
func expDiff[T Elem](v, mx T) float64 { return expNonPos(float64(v - mx)) }

// GELUInto writes GELU(x) = 0.5x(1 + tanh(√(2/π)(x + 0.044715x³))) into
// dst (same shape and dtype). It is evaluated in float64 for both dtypes;
// float32 rounds once at the store.
func GELUInto(dst, x *Tensor) {
	checkSame(dst, x, "GELUInto")
	if x.dt == Float32 {
		geluFwd(dst.data32, x.data32)
	} else {
		geluFwd(dst.data, x.data)
	}
}

// GELUGradInto writes dy·GELU'(x) into dst (all three the same shape and
// dtype), recomputing the gate from x. Like GELUInto it evaluates in
// float64 and rounds once at the store.
func GELUGradInto(dst, dy, x *Tensor) {
	checkSame(dst, x, "GELUGradInto")
	checkSame(dy, x, "GELUGradInto")
	if x.dt == Float32 {
		geluBwd(dst.data32, dy.data32, x.data32)
	} else {
		geluBwd(dst.data, dy.data, x.data)
	}
}

// geluFwd runs the AVX-512 kernel over the largest multiple of 8 elements
// when the host has it, and the Go twin over the rest.
func geluFwd[T Elem](out, x []T) {
	i := 0
	if haveAVX512 && len(x) >= geluLanes {
		i = len(x) &^ (geluLanes - 1)
		_ = out[i-1]
		if dtypeOf[T]() == Float64 {
			geluFwd8f64(ptr(out), ptr(x), i)
		} else {
			geluFwd8f32(ptr(out), ptr(x), i)
		}
	}
	for ; i < len(x); i++ {
		out[i] = geluOf(x[i])
	}
}

// geluBwd is geluFwd's backward twin: out = dy·GELU'(x).
func geluBwd[T Elem](out, dy, x []T) {
	i := 0
	if haveAVX512 && len(x) >= geluLanes {
		i = len(x) &^ (geluLanes - 1)
		_, _ = out[i-1], dy[i-1]
		if dtypeOf[T]() == Float64 {
			geluBwd8f64(ptr(out), ptr(dy), ptr(x), i)
		} else {
			geluBwd8f32(ptr(out), ptr(dy), ptr(x), i)
		}
	}
	for ; i < len(x); i++ {
		out[i] = geluGradOf(dy[i], x[i])
	}
}
