package nn

import (
	"math"

	"pipemare/internal/tensor"
)

// LayerNorm normalizes the last axis of a (N, D) tensor and applies a
// learned per-feature gain and bias. Because its statistics are per-sample
// it is microbatch-size independent, which matters in fine-grained pipeline
// training (the paper avoids small-batch BatchNorm for the same reason,
// citing GroupNorm).
type LayerNorm struct {
	Gain *Param // γ, shape (D)
	Bias *Param // β, shape (D)
	Eps  float64
}

type lnState struct {
	xhat   *tensor.Tensor
	invStd []float64
}

// NewLayerNorm returns a LayerNorm over feature dimension d with γ=1, β=0.
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{Gain: NewParam(name+".g", d), Bias: NewParam(name+".b", d), Eps: 1e-5}
	ln.Gain.Data.Fill(1)
	return ln
}

// Forward normalizes each row and applies the affine transform. Statistics
// accumulate in float64 for both dtypes; float32 rounds once at each store.
func (ln *LayerNorm) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	n, d := x.Shape[0], x.Shape[1]
	xhat := t.NewTensor(n, d)
	invStd := t.Floats(n)
	out := t.NewTensor(n, d)
	if x.DType() == tensor.Float32 {
		lnFwd(tensor.F32(out), tensor.F32(xhat), tensor.F32(x),
			tensor.F32(ln.Gain.Data), tensor.F32(ln.Bias.Data), invStd, n, d, ln.Eps)
	} else {
		lnFwd(tensor.F64(out), tensor.F64(xhat), tensor.F64(x),
			tensor.F64(ln.Gain.Data), tensor.F64(ln.Bias.Data), invStd, n, d, ln.Eps)
	}
	t.Push(lnState{xhat, invStd})
	return out
}

func lnFwd[T tensor.Elem](out, xhat, x, gain, bias []T, invStd []float64, n, d int, eps float64) {
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

// Backward accumulates dγ, dβ and returns dx using the backward gain.
func (ln *LayerNorm) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	st := t.Pop().(lnState)
	n, d := dy.Shape[0], dy.Shape[1]
	out := t.NewTensor(n, d)
	if dy.DType() == tensor.Float32 {
		lnBwd(tensor.F32(out), tensor.F32(dy), tensor.F32(st.xhat),
			tensor.F32(ln.Gain.BwdData()), tensor.F32(ln.Gain.Grad), tensor.F32(ln.Bias.Grad),
			st.invStd, n, d)
	} else {
		lnBwd(tensor.F64(out), tensor.F64(dy), tensor.F64(st.xhat),
			tensor.F64(ln.Gain.BwdData()), tensor.F64(ln.Gain.Grad), tensor.F64(ln.Bias.Grad),
			st.invStd, n, d)
	}
	return out
}

func lnBwd[T tensor.Elem](out, dy, xhat, gainB, gGrad, bGrad []T, invStd []float64, n, d int) {
	// dγ_j = Σ_i dy_ij·xhat_ij and dβ_j = Σ_i dy_ij: rows accumulate in
	// ascending order per column. The sums form in float64 and land on
	// the gradient with one add per element.
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

// Params returns the gain and bias.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gain, ln.Bias} }

// GroupNorm normalizes a (B, C, H, W) tensor per sample over channel
// groups, with learned per-channel gain and bias. Its statistics are
// independent of the microbatch size, which is why the paper prefers it to
// BatchNorm in fine-grained pipelines.
type GroupNorm struct {
	Gain   *Param // γ, shape (C)
	Bias   *Param // β, shape (C)
	Groups int
	Eps    float64
}

type gnState struct {
	xhat    *tensor.Tensor
	invStd  []float64 // per (b, group)
	c, h, w int
}

// NewGroupNorm returns a GroupNorm over c channels split into groups.
// groups must divide c.
func NewGroupNorm(name string, c, groups int) *GroupNorm {
	if c%groups != 0 {
		panic("nn: GroupNorm channels must be divisible by groups")
	}
	gn := &GroupNorm{Gain: NewParam(name+".g", c), Bias: NewParam(name+".b", c), Groups: groups, Eps: 1e-5}
	gn.Gain.Data.Fill(1)
	return gn
}

// Forward normalizes each (sample, group) block.
func (gn *GroupNorm) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	xhat := t.NewTensor(b, c, h, w)
	invStd := t.Floats(b * gn.Groups)
	out := t.NewTensor(b, c, h, w)
	if x.DType() == tensor.Float32 {
		gnFwd(tensor.F32(out), tensor.F32(xhat), tensor.F32(x),
			tensor.F32(gn.Gain.Data), tensor.F32(gn.Bias.Data), invStd,
			b, c, h, w, gn.Groups, gn.Eps)
	} else {
		gnFwd(tensor.F64(out), tensor.F64(xhat), tensor.F64(x),
			tensor.F64(gn.Gain.Data), tensor.F64(gn.Bias.Data), invStd,
			b, c, h, w, gn.Groups, gn.Eps)
	}
	t.Push(gnState{xhat, invStd, c, h, w})
	return out
}

func gnFwd[T tensor.Elem](out, xhat, x, gain, bias []T, invStd []float64, b, c, h, w, groups int, eps float64) {
	cg := c / groups
	blk := cg * h * w
	for n := 0; n < b; n++ {
		for g := 0; g < groups; g++ {
			base := (n*c + g*cg) * h * w
			mu := 0.0
			for i := 0; i < blk; i++ {
				mu += float64(x[base+i])
			}
			mu /= float64(blk)
			va := 0.0
			for i := 0; i < blk; i++ {
				d := float64(x[base+i]) - mu
				va += float64(d * d)
			}
			va /= float64(blk)
			is := 1 / math.Sqrt(va+eps)
			invStd[n*groups+g] = is
			for ch := 0; ch < cg; ch++ {
				gamma := float64(gain[g*cg+ch])
				beta := float64(bias[g*cg+ch])
				cbase := base + ch*h*w
				for i := 0; i < h*w; i++ {
					xh := (float64(x[cbase+i]) - mu) * is
					xhat[cbase+i] = T(xh)
					out[cbase+i] = T(float64(gamma*xh) + beta)
				}
			}
		}
	}
}

// Backward accumulates dγ, dβ and returns dx using the backward gain. The
// per-channel sums are formed in tape temporaries and folded with a single
// AddInto each, keeping the one-add-per-element-per-call accumulation
// contract (see Param.Grad).
func (gn *GroupNorm) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	st := t.Pop().(gnState)
	b, c, h, w := dy.Shape[0], st.c, st.h, st.w
	dGain := t.NewTensor(c)
	dBias := t.NewTensor(c)
	out := t.NewTensor(b, c, h, w)
	if dy.DType() == tensor.Float32 {
		gnBwd(tensor.F32(out), tensor.F32(dy), tensor.F32(st.xhat),
			tensor.F32(gn.Gain.BwdData()), tensor.F32(dGain), tensor.F32(dBias),
			st.invStd, b, c, h, w, gn.Groups)
	} else {
		gnBwd(tensor.F64(out), tensor.F64(dy), tensor.F64(st.xhat),
			tensor.F64(gn.Gain.BwdData()), tensor.F64(dGain), tensor.F64(dBias),
			st.invStd, b, c, h, w, gn.Groups)
	}
	tensor.AddInto(gn.Gain.Grad, dGain)
	tensor.AddInto(gn.Bias.Grad, dBias)
	return out
}

func gnBwd[T tensor.Elem](out, dy, xhat, gainB, dGain, dBias []T, invStd []float64, b, c, h, w, groups int) {
	cg := c / groups
	blk := cg * h * w
	for n := 0; n < b; n++ {
		for g := 0; g < groups; g++ {
			base := (n*c + g*cg) * h * w
			m1, m2 := 0.0, 0.0
			for ch := 0; ch < cg; ch++ {
				gamma := float64(gainB[g*cg+ch])
				cbase := base + ch*h*w
				for i := 0; i < h*w; i++ {
					gv := float64(dy[cbase+i])
					xh := float64(xhat[cbase+i])
					dGain[g*cg+ch] += T(gv * xh)
					dBias[g*cg+ch] += T(gv)
					dx := float64(gv * gamma)
					m1 += dx
					m2 += float64(dx * xh)
				}
			}
			m1 /= float64(blk)
			m2 /= float64(blk)
			is := invStd[n*groups+g]
			for ch := 0; ch < cg; ch++ {
				gamma := float64(gainB[g*cg+ch])
				cbase := base + ch*h*w
				for i := 0; i < h*w; i++ {
					xh := float64(xhat[cbase+i])
					dx := float64(float64(dy[cbase+i]) * gamma)
					out[cbase+i] = T(is * (dx - m1 - float64(xh*m2)))
				}
			}
		}
	}
}

// Params returns the gain and bias.
func (gn *GroupNorm) Params() []*Param { return []*Param{gn.Gain, gn.Bias} }
