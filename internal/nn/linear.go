package nn

import (
	"math/rand"

	"pipemare/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b with W of shape (out, in).
type Linear struct {
	W *Param
	B *Param // nil when constructed without bias
}

// NewLinear returns a Linear layer with Xavier-initialized weights and,
// when bias is true, a zero-initialized bias.
func NewLinear(name string, in, out int, bias bool, rng *rand.Rand) *Linear {
	l := &Linear{W: NewParam(name+".W", out, in)}
	l.W.InitXavier(rng, in, out)
	if bias {
		l.B = NewParam(name+".b", out)
	}
	return l
}

// Forward computes x·Wᵀ + b and saves x on the tape. When W reads an
// installed snapshot, the product reads its Wᵀ panel, packed once per
// snapshot; otherwise it packs Wᵀ itself.
func (l *Linear) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	out := t.NewTensor(x.Shape[0], l.W.Data.Shape[0])
	if pn := l.W.forwardPanel(); pn != nil {
		tensor.MatMulT2PanelInto(out, x, pn)
	} else {
		tensor.MatMulT2Into(out, x, l.W.Data)
	}
	if l.B != nil {
		tensor.AddBiasRows(out, l.B.Data)
	}
	t.Push(x)
	return out
}

// Backward accumulates dW = dyᵀ·x and db = Σrows(dy) into the gradients and
// returns dx = dy·W computed with the backward weights. Each gradient is
// summed from +0 and folded with one add per element, with no temporary
// (MatMulT1AddInto, FoldColSums): the accumulation contract of Param.Grad.
func (l *Linear) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.Pop()
	// Parameter gradients use the saved forward input.
	tensor.MatMulT1AddInto(l.W.Grad, dy, x)
	if l.B != nil {
		tensor.FoldColSums(l.B.Grad, dy)
	}
	// Input gradient uses the (possibly delayed) backward weights.
	dx := t.NewTensor(dy.Shape[0], l.W.Data.Shape[1])
	tensor.MatMulInto(dx, dy, l.W.BwdData())
	return dx
}

// Params returns the weight and, if present, the bias.
func (l *Linear) Params() []*Param {
	if l.B != nil {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}
