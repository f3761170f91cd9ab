package tensor

import "math"

// The commit kernels: a weight version is written once per minibatch, by
// the optimizer step and T2's discrepancy update, and each is one pass
// over the stage's weights. They follow the GELU kernels' pattern: a Go
// twin that is the spec, and on AVX-512 hosts an assembly kernel
// (commit_amd64.s) that performs the twin's IEEE operations in the twin's
// order, eight lanes at a time, with separate VMUL/VADD/VSUB/VDIV/VSQRT
// and no FMA. Every one of those operations is correctly rounded, so a
// lane equals the twin bit for bit; the twin runs the tail past the last
// full vector and every host without AVX-512.

// commitLanes is the AdamW kernels' width (eight float64 lanes, for both
// dtypes) and the float64 T2 kernel's; the float32 T2 kernel runs
// t2Lanes32, one ZMM register of float32.
const (
	commitLanes = 8
	t2Lanes32   = 16
)

// AdamWInto applies one bias-corrected AdamW update in place to the
// weights w from the gradient g, updating the first and second moments m
// and v (all four the same shape and dtype). The arithmetic runs in
// float64 for both dtypes; float32 rounds once at each store. b1, b2, eps
// and wd are AdamW's hyperparameters, lr the learning rate, and bc1, bc2
// the step's bias corrections 1 − β₁ᵗ and 1 − β₂ᵗ.
func AdamWInto(w, g, m, v *Tensor, b1, b2, eps, wd, lr, bc1, bc2 float64) {
	checkSame(g, w, "AdamWInto")
	checkSame(m, w, "AdamWInto")
	checkSame(v, w, "AdamWInto")
	if w.dt == Float32 {
		adamw(w.data32, g.data32, m.data32, v.data32, b1, b2, eps, wd, lr, bc1, bc2)
	} else {
		adamw(w.data, g.data, m.data, v.data, b1, b2, eps, wd, lr, bc1, bc2)
	}
}

// adamwConsts are the scalars of one AdamW step, in the order the
// kernels broadcast them: β₁, 1 − β₁, β₂, 1 − β₂, the two bias
// corrections, ε, the weight decay and the learning rate.
type adamwConsts [9]float64

// adamw runs the AVX-512 kernel over the largest multiple of 8 elements
// when the host has it, and the Go twin over the rest.
func adamw[T Elem](w, g, m, v []T, b1, b2, eps, wd, lr, bc1, bc2 float64) {
	i := 0
	if haveAVX512 && len(w) >= commitLanes {
		i = len(w) &^ (commitLanes - 1)
		_, _, _ = g[i-1], m[i-1], v[i-1]
		k := adamwConsts{b1, 1 - b1, b2, 1 - b2, bc1, bc2, eps, wd, lr}
		if dtypeOf[T]() == Float64 {
			adamw8f64(ptr(w), ptr(g), ptr(m), ptr(v), i, &k)
		} else {
			adamw8f32(ptr(w), ptr(g), ptr(m), ptr(v), i, &k)
		}
	}
	adamwStep(w[i:], g[i:], m[i:], v[i:], b1, b2, eps, wd, lr, bc1, bc2)
}

// adamwStep is the Go twin of the AdamW kernels: the bias-corrected
// update of one parameter, every operation in float64 (including the
// square root), float32 rounding once at each moment and weight store.
func adamwStep[T Elem](w, g, m, v []T, b1, b2, eps, wd, lr, bc1, bc2 float64) {
	for j := range w {
		gr := float64(g[j])
		mj := float64(b1*float64(m[j])) + float64((1-b1)*gr)
		vj := float64(b2*float64(v[j])) + float64((1-b2)*gr*gr)
		m[j] = T(mj)
		v[j] = T(vj)
		mh := mj / bc1
		vh := vj / bc2
		w[j] = T(float64(w[j]) - float64(lr*(mh/(math.Sqrt(vh)+eps)+float64(wd*float64(w[j])))))
	}
}

// T2Into advances T2's discrepancy accumulator d and refreshes the
// corrected backward weights c from the stepped weights cur and the
// version before the step, prev (all four the same shape and dtype), in
// the element type: d ← γd + (1−γ)(cur − prev), then c = cur − τ·d, with γ
// and τ rounded to the dtype first.
func T2Into(d, c, cur, prev *Tensor, gamma, tau float64) {
	checkSame(c, d, "T2Into")
	checkSame(cur, d, "T2Into")
	checkSame(prev, d, "T2Into")
	if d.dt == Float32 {
		t2(d.data32, c.data32, cur.data32, prev.data32, gamma, tau)
	} else {
		t2(d.data, c.data, cur.data, prev.data, gamma, tau)
	}
}

// t2 runs the AVX-512 kernel over the largest multiple of its lane count
// when the host has it, and the Go twin over the rest.
func t2[T Elem](d, c, cur, prev []T, gamma, tau float64) {
	lanes := commitLanes
	if dtypeOf[T]() == Float32 {
		lanes = t2Lanes32
	}
	i := 0
	if haveAVX512 && len(d) >= lanes {
		i = len(d) &^ (lanes - 1)
		_, _, _ = c[i-1], cur[i-1], prev[i-1]
		g := T(gamma)
		if dtypeOf[T]() == Float64 {
			t2x8f64(ptr(d), ptr(c), ptr(cur), ptr(prev), i, float64(g), float64(1-g), tau)
		} else {
			t2x16f32(ptr(d), ptr(c), ptr(cur), ptr(prev), i, float32(g), float32(1-g), float32(tau))
		}
	}
	t2Update(d[i:], c[i:], cur[i:], prev[i:], gamma, tau)
}

// t2Update is the Go twin of the T2 kernels: it advances one parameter's
// discrepancy accumulator in the parameter's own dtype, then refreshes the
// corrected backward weights: δ ← γδ + (1−γ)(w − w_prev) and
// u_bkwd = w − (τ_fwd − τ_bkwd)·δ.
func t2Update[T Elem](d, c, cur, prev []T, gamma, tau float64) {
	g := T(gamma)
	tt := T(tau)
	for j := range d {
		d[j] = T(g*d[j]) + T((1-g)*(cur[j]-prev[j]))
	}
	for j := range c {
		c[j] = cur[j] - T(tt*d[j])
	}
}

// DivSumSq divides every element of t by s in place (x/s, the dtype's
// own division, not x·(1/s)) and returns the sum of the squared
// quotients, accumulated in float64 in ascending order from 0 (as SumSq):
// the two in one read of t.
func (t *Tensor) DivSumSq(s float64) float64 {
	if t.dt == Float32 {
		return divSumSq(t.data32, float32(s))
	}
	return divSumSq(t.data, s)
}

func divSumSq[T Elem](d []T, s T) float64 {
	sum := 0.0
	for i := range d {
		d[i] /= s
		sum += float64(float64(d[i]) * float64(d[i]))
	}
	return sum
}
