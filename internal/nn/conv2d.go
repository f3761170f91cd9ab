package nn

import (
	"math/rand"

	"pipemare/internal/tensor"
)

// Conv2d is a 2-D convolution over (B, C, H, W) inputs with square kernels,
// implemented via im2col lowering so forward and backward are matrix
// multiplies against the (possibly decoupled) kernel weights.
type Conv2d struct {
	W *Param // kernel, shape (outC, inC·K·K): one output channel's (inC, K, K) per row
	B *Param // per-output-channel bias, nil when disabled

	InC, OutC, K, Stride, Pad int
}

type convState struct {
	cols    *tensor.Tensor // im2col of the forward input
	b, h, w int            // input geometry
	oh, ow  int            // output geometry
}

// NewConv2d returns a Conv2d with He-initialized kernel weights.
func NewConv2d(name string, inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *Conv2d {
	c := &Conv2d{
		W:   NewParam(name+".W", outC, inC*k*k),
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
	}
	c.W.InitHe(rng, inC*k*k)
	if bias {
		c.B = NewParam(name+".b", outC)
	}
	return c
}

// Forward computes the convolution and saves the lowered input.
func (c *Conv2d) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	cols := t.NewTensor(b*oh*ow, c.W.Data.Shape[1])
	tensor.Im2ColInto(cols, x, c.K, c.K, c.Stride, c.Pad)
	// rows are (b, oy, ox); columns are output channels.
	res := t.NewTensor(b*oh*ow, c.OutC)
	tensor.MatMulT2Into(res, cols, c.W.Data)
	out := t.NewTensor(b, c.OutC, oh, ow)
	hw := oh * ow
	if out.DType() == tensor.Float32 {
		var bias []float32
		if c.B != nil {
			bias = tensor.F32(c.B.Data)
		}
		convScatter(tensor.F32(out), tensor.F32(res), bias, b, c.OutC, hw)
	} else {
		var bias []float64
		if c.B != nil {
			bias = tensor.F64(c.B.Data)
		}
		convScatter(tensor.F64(out), tensor.F64(res), bias, b, c.OutC, hw)
	}
	t.convs.push(convState{cols, b, h, w, oh, ow})
	return out
}

// convScatter transposes (B*OH*OW, outC) matmul rows into (B, outC, OH, OW)
// image layout, adding the per-channel bias when present.
func convScatter[T tensor.Elem](out, res, bias []T, b, outC, hw int) {
	for n := 0; n < b; n++ {
		for p := 0; p < hw; p++ {
			row := res[(n*hw+p)*outC : (n*hw+p+1)*outC]
			for o := 0; o < outC; o++ {
				v := row[o]
				if bias != nil {
					v += bias[o]
				}
				out[(n*outC+o)*hw+p] = v
			}
		}
	}
}

// Backward accumulates kernel/bias gradients from the saved lowered input
// and returns the input gradient computed with the backward weights.
func (c *Conv2d) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	st := t.convs.pop()
	hw := st.oh * st.ow
	// Rearrange dy (B, outC, OH, OW) into (B*OH*OW, outC) matching cols rows.
	dyr := t.NewTensor(st.b*hw, c.OutC)
	if dy.DType() == tensor.Float32 {
		convGather(tensor.F32(dyr), tensor.F32(dy), st.b, c.OutC, hw)
	} else {
		convGather(tensor.F64(dyr), tensor.F64(dy), st.b, c.OutC, hw)
	}
	// dW += dyrᵀ @ cols, shape (outC, inC*K*K), and the bias gradient,
	// each folded with one add per element (see Param.Grad).
	tensor.MatMulT1AddInto(c.W.Grad, dyr, st.cols)
	if c.B != nil {
		tensor.FoldColSums(c.B.Grad, dyr)
	}
	// dcols = dyr @ W_bwd, then scatter back to image space.
	dcols := t.NewTensor(st.b*hw, c.W.Data.Shape[1])
	tensor.MatMulInto(dcols, dyr, c.W.BwdData())
	dx := t.NewTensor(st.b, c.InC, st.h, st.w)
	tensor.Col2ImInto(dx, dcols, c.K, c.K, c.Stride, c.Pad)
	return dx
}

// convGather transposes (B, outC, OH, OW) image-layout gradients into the
// (B*OH*OW, outC) row layout the weight-gradient matmuls expect.
func convGather[T tensor.Elem](dyr, dy []T, b, outC, hw int) {
	for n := 0; n < b; n++ {
		for o := 0; o < outC; o++ {
			base := (n*outC + o) * hw
			for p := 0; p < hw; p++ {
				dyr[(n*hw+p)*outC+o] = dy[base+p]
			}
		}
	}
}

// Params returns the kernel and, if present, the bias.
func (c *Conv2d) Params() []*Param {
	if c.B != nil {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}
