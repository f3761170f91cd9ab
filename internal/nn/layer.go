package nn

import "pipemare/internal/tensor"

// Layer is a differentiable module. Forward pushes whatever Backward needs
// onto the tape; Backward pops it, consumes the upstream gradient dy,
// accumulates parameter gradients into Param.Grad using the saved forward
// activations, and returns the gradient with respect to the layer input,
// computed with the layer's backward weights (Param.BwdData).
//
// Layers hold no per-call state: all activations live on the caller's
// tape, so the same layer may serve several in-flight microbatches as long
// as each uses its own Tape and Forward/Backward pairs nest in stack
// order. Mutating the same Param set concurrently is still the caller's
// problem — the pipeline engines serialize per-stage work on one goroutine.
type Layer interface {
	Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor
	Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ReLU is the rectified linear activation.
type ReLU struct{}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0) (tensor.ReLUInto) and saves x for the
// backward gate.
func (r *ReLU) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	out := t.NewTensor(x.Shape...)
	tensor.ReLUInto(out, x)
	t.Push(x)
	return out
}

// Backward gates dy by the sign of the forward input (tensor.ReLUGradInto).
func (r *ReLU) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.Pop()
	out := t.NewTensor(dy.Shape...)
	tensor.ReLUGradInto(out, dy, x)
	return out
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// GELU is the Gaussian error linear unit (tanh approximation).
type GELU struct{}

// NewGELU returns a GELU layer.
func NewGELU() *GELU { return &GELU{} }

// Forward computes 0.5x(1 + tanh(√(2/π)(x + 0.044715x³))) =
// x·σ(2√(2/π)(x + 0.044715x³)) with tensor.GELUInto: evaluated in float64
// for both dtypes, float32 rounding once at the store.
func (g *GELU) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	out := t.NewTensor(x.Shape...)
	tensor.GELUInto(out, x)
	t.Push(x)
	return out
}

// Backward computes the GELU derivative times dy, recomputing the gate
// from the saved input (tensor.GELUGradInto).
func (g *GELU) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.Pop()
	out := t.NewTensor(dy.Shape...)
	tensor.GELUGradInto(out, dy, x)
	return out
}

// Params returns nil: GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }

// GlobalAvgPool averages a (B,C,H,W) tensor over its spatial axes,
// producing (B,C).
type GlobalAvgPool struct{}

// NewGlobalAvgPool returns a GlobalAvgPool layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

type gapState struct{ b, c, h, w int }

// Forward averages over H and W.
func (g *GlobalAvgPool) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := t.NewTensor(b, c)
	if x.DType() == tensor.Float32 {
		gapFwd(tensor.F32(out), tensor.F32(x), b, c, h*w)
	} else {
		gapFwd(tensor.F64(out), tensor.F64(x), b, c, h*w)
	}
	t.gaps.push(gapState{b, c, h, w})
	return out
}

func gapFwd[T tensor.Elem](out, x []T, b, c, hw int) {
	inv := float64(hw)
	for n := 0; n < b; n++ {
		for ch := 0; ch < c; ch++ {
			s := 0.0
			base := (n*c + ch) * hw
			for i := 0; i < hw; i++ {
				s += float64(x[base+i])
			}
			out[n*c+ch] = T(s / inv)
		}
	}
}

// Backward spreads dy uniformly over the pooled positions.
func (g *GlobalAvgPool) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	st := t.gaps.pop()
	out := t.NewTensor(st.b, st.c, st.h, st.w)
	if dy.DType() == tensor.Float32 {
		gapBwd(tensor.F32(out), tensor.F32(dy), st.b, st.c, st.h*st.w)
	} else {
		gapBwd(tensor.F64(out), tensor.F64(dy), st.b, st.c, st.h*st.w)
	}
	return out
}

func gapBwd[T tensor.Elem](out, dy []T, b, c, hw int) {
	for n := 0; n < b; n++ {
		for ch := 0; ch < c; ch++ {
			v := T(float64(dy[n*c+ch]) / float64(hw))
			base := (n*c + ch) * hw
			for i := 0; i < hw; i++ {
				out[base+i] = v
			}
		}
	}
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }
