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
		if out.DType() == tensor.Float32 {
			addBiasRows(tensor.F32(out), tensor.F32(l.B.Data), out.Shape[0], out.Shape[1])
		} else {
			addBiasRows(tensor.F64(out), tensor.F64(l.B.Data), out.Shape[0], out.Shape[1])
		}
	}
	t.Push(x)
	return out
}

// foldColSums adds the column sums of the (rows, cols) matrix dy into the
// gradient g with one add per element (shared by the Linear and Conv2d
// bias gradients): per column, the rows summed from +0 in ascending
// order, then g[j] + s — the bits of summing into a zeroed temporary and
// folding it with AddInto. Sixteen columns at a time ride in a stack
// array, so dy is read row by row.
func foldColSums[T tensor.Elem](g, dy []T, rows, cols int) {
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

func addBiasRows[T tensor.Elem](out, b []T, rows, cols int) {
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			row[j] += b[j]
		}
	}
}

// Backward accumulates dW = dyᵀ·x and db = Σrows(dy) into the gradients and
// returns dx = dy·W computed with the backward weights. Each gradient is
// summed from +0 and folded with one add per element, with no temporary
// (MatMulT1AddInto, foldColSums): the accumulation contract of Param.Grad.
func (l *Linear) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.Pop().(*tensor.Tensor)
	// Parameter gradients use the saved forward input.
	tensor.MatMulT1AddInto(l.W.Grad, dy, x)
	if l.B != nil {
		rows, cols := dy.Shape[0], dy.Shape[1]
		if dy.DType() == tensor.Float32 {
			foldColSums(tensor.F32(l.B.Grad), tensor.F32(dy), rows, cols)
		} else {
			foldColSums(tensor.F64(l.B.Grad), tensor.F64(dy), rows, cols)
		}
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
