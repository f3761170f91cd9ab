package nn

import (
	"math"
	"math/rand"

	"pipemare/internal/tensor"
)

// AttnCore is the weightless scaled dot-product attention core over
// pre-projected (B*QLen, D) queries and (B*KLen, D) keys/values, split
// into Heads heads of dimension D/Heads. It is a separate piece so the
// stage-split op programs can place the q/k/v/o projections in different
// pipeline stages (they are distinct weight groups) with the core riding
// along with the output projection.
type AttnCore struct {
	Heads, D   int
	QLen, KLen int  // sequence lengths on the query and key/value sides
	Causal     bool // mask future positions (QLen must equal KLen)
	ElemBytes  int  // cost-model element size in bytes; 0 means float64
}

type attnState struct {
	batch   int
	q, k, v *tensor.Tensor
	probs   *tensor.Tensor // (batch*heads, QLen*KLen) softmax rows
}

// NewAttnCore returns an attention core.
func NewAttnCore(d, heads, qLen, kLen int, causal bool) *AttnCore {
	if d%heads != 0 {
		panic("nn: attention dimension must be divisible by heads")
	}
	if causal && qLen != kLen {
		panic("nn: causal attention requires qLen == kLen")
	}
	return &AttnCore{Heads: heads, D: d, QLen: qLen, KLen: kLen, Causal: causal}
}

// Forward computes softmax(q·kᵀ/√dk)·v per (batch, head) over the full
// QLen×KLen score matrix of every sequence.
func (a *AttnCore) Forward(t *Tape, q, k, v *tensor.Tensor) *tensor.Tensor {
	y, probs := a.attend(t, q, k, v, a.QLen, a.KLen, a.KLen)
	t.Push(attnState{q.Shape[0] / a.QLen, q, k, v, probs})
	return y
}

// attend is the attention loop of Forward and of the decode step: per
// (batch, head) pair, the sequence's qLen query rows attend over its
// first kLen key/value rows, whose sequences start kStride rows apart in
// k and v. Each pair writes its own probs row and its own (head-column)
// block of y, through one scratch set from the tape. A causal core lets
// query i see keys j ≤ i + kLen − qLen: the last query row sits at the
// last key row's position.
func (a *AttnCore) attend(t *Tape, q, k, v *tensor.Tensor, qLen, kLen, kStride int) (y, probs *tensor.Tensor) {
	batch := q.Shape[0] / qLen
	dk := a.D / a.Heads
	scale := 1 / math.Sqrt(float64(dk))
	y = t.NewTensor(batch*qLen, a.D)
	probs = t.NewTensor(batch*a.Heads, qLen*kLen)
	s := t.NewTensor(qLen, kLen)
	qh, kh, vh := t.NewTensor(qLen, dk), t.NewTensor(kLen, dk), t.NewTensor(kLen, dk)
	yh := t.NewTensor(qLen, dk)
	for idx := 0; idx < batch*a.Heads; idx++ {
		b, h := idx/a.Heads, idx%a.Heads
		a.sliceHead(qh, q, b, h, qLen, qLen)
		a.sliceHead(kh, k, b, h, kLen, kStride)
		a.sliceHead(vh, v, b, h, kLen, kStride)
		tensor.MatMulT2Into(s, qh, kh)
		if s.DType() == tensor.Float32 {
			attnScaleMask(tensor.F32(s), scale, a.Causal, qLen, kLen)
		} else {
			attnScaleMask(tensor.F64(s), scale, a.Causal, qLen, kLen)
		}
		p := probs.RowView(idx, qLen, kLen)
		tensor.SoftmaxRowsInto(p, s)
		yh.Zero()
		tensor.MatMulInto(yh, p, vh)
		a.scatterHead(y, yh, b, h, qLen)
	}
	return y, probs
}

// attnScaleMask scales the score matrix in the dtype's native precision
// and applies the causal mask.
func attnScaleMask[T tensor.Elem](s []T, scale float64, causal bool, qLen, kLen int) {
	sc := T(scale)
	for i := range s {
		s[i] *= sc
	}
	if causal {
		ninf := T(math.Inf(-1))
		for i := 0; i < qLen; i++ {
			for j := i + kLen - qLen + 1; j < kLen; j++ {
				s[i*kLen+j] = ninf
			}
		}
	}
}

// Backward backpropagates dy through the attention core, returning the
// gradients with respect to q, k and v.
func (a *AttnCore) Backward(t *Tape, dy *tensor.Tensor) (dq, dk, dv *tensor.Tensor) {
	st := t.Pop().(attnState)
	dkh := a.D / a.Heads
	scale := 1 / math.Sqrt(float64(dkh))
	dQ := t.NewTensor(st.batch*a.QLen, a.D)
	dK := t.NewTensor(st.batch*a.KLen, a.D)
	dV := t.NewTensor(st.batch*a.KLen, a.D)
	qh, kh, vh := t.NewTensor(a.QLen, dkh), t.NewTensor(a.KLen, dkh), t.NewTensor(a.KLen, dkh)
	dyh, dvh := t.NewTensor(a.QLen, dkh), t.NewTensor(a.KLen, dkh)
	dp, ds := t.NewTensor(a.QLen, a.KLen), t.NewTensor(a.QLen, a.KLen)
	dqh, dkhT := t.NewTensor(a.QLen, dkh), t.NewTensor(a.KLen, dkh)
	for idx := 0; idx < st.batch*a.Heads; idx++ {
		b, h := idx/a.Heads, idx%a.Heads
		p := st.probs.RowView(idx, a.QLen, a.KLen)
		a.sliceHead(qh, st.q, b, h, a.QLen, a.QLen)
		a.sliceHead(kh, st.k, b, h, a.KLen, a.KLen)
		a.sliceHead(vh, st.v, b, h, a.KLen, a.KLen)
		a.sliceHead(dyh, dy, b, h, a.QLen, a.QLen)
		dvh.Zero()
		tensor.MatMulT1Into(dvh, p, dyh)
		tensor.MatMulT2Into(dp, dyh, vh)
		// Softmax backward: ds = p ⊙ (dp − rowsum(dp ⊙ p)).
		if p.DType() == tensor.Float32 {
			attnSoftmaxBwd(tensor.F32(ds), tensor.F32(dp), tensor.F32(p), a.QLen, a.KLen, scale)
		} else {
			attnSoftmaxBwd(tensor.F64(ds), tensor.F64(dp), tensor.F64(p), a.QLen, a.KLen, scale)
		}
		dqh.Zero()
		tensor.MatMulInto(dqh, ds, kh)
		dkhT.Zero()
		tensor.MatMulT1Into(dkhT, ds, qh)
		a.scatterHead(dQ, dqh, b, h, a.QLen)
		a.scatterHead(dK, dkhT, b, h, a.KLen)
		a.scatterHead(dV, dvh, b, h, a.KLen)
	}
	return dQ, dK, dV
}

// attnSoftmaxBwd computes ds = p ⊙ (dp − rowsum(dp ⊙ p))·scale with the
// row dot accumulated in float64 for both dtypes.
func attnSoftmaxBwd[T tensor.Elem](ds, dp, p []T, qLen, kLen int, scale float64) {
	for i := 0; i < qLen; i++ {
		dot := 0.0
		for j := 0; j < kLen; j++ {
			dot += float64(float64(dp[i*kLen+j]) * float64(p[i*kLen+j]))
		}
		for j := 0; j < kLen; j++ {
			ds[i*kLen+j] = T(float64(p[i*kLen+j]) * (float64(dp[i*kLen+j]) - dot) * scale)
		}
	}
}

// sliceHead copies the (rows, dk) block for batch b and head h out of a
// (B*stride, D) activation whose sequences start stride rows apart.
func (a *AttnCore) sliceHead(dst, x *tensor.Tensor, b, h, rows, stride int) {
	if x.DType() == tensor.Float32 {
		sliceHead(tensor.F32(dst), tensor.F32(x), b, h, rows, stride, a.D, a.D/a.Heads)
	} else {
		sliceHead(tensor.F64(dst), tensor.F64(x), b, h, rows, stride, a.D, a.D/a.Heads)
	}
}

func sliceHead[T tensor.Elem](dst, x []T, b, h, rows, stride, d, dk int) {
	for ti := 0; ti < rows; ti++ {
		src := x[(b*stride+ti)*d+h*dk:]
		copy(dst[ti*dk:(ti+1)*dk], src[:dk])
	}
}

// scatterHead adds the (seqLen, dk) block for batch b and head h into a
// (B*seqLen, D) activation.
func (a *AttnCore) scatterHead(dst, src *tensor.Tensor, b, h, seqLen int) {
	if dst.DType() == tensor.Float32 {
		scatterHead(tensor.F32(dst), tensor.F32(src), b, h, seqLen, a.D, a.D/a.Heads)
	} else {
		scatterHead(tensor.F64(dst), tensor.F64(src), b, h, seqLen, a.D, a.D/a.Heads)
	}
}

func scatterHead[T tensor.Elem](dst, src []T, b, h, seqLen, d, dk int) {
	for ti := 0; ti < seqLen; ti++ {
		drow := dst[(b*seqLen+ti)*d+h*dk:]
		srow := src[ti*dk : (ti+1)*dk]
		for j := range srow {
			drow[j] += srow[j]
		}
	}
}

// MultiHeadAttention bundles the query/key/value/output projections and
// the AttnCore of one attention block; a model compiles each of the five
// into its own op (the projections are distinct weight groups). Activations
// are (B*T, D) matrices with a fixed sequence length per side, matching the
// synthetic translation task. The projections are Linear layers, so the
// decoupled-weight machinery applies to them automatically.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Core           *AttnCore
}

// NewMultiHeadAttention returns an attention block over dimension d with
// the given number of heads. qLen and kLen are the fixed query-side and
// key-side sequence lengths.
func NewMultiHeadAttention(name string, d, heads, qLen, kLen int, causal bool, rng *rand.Rand) *MultiHeadAttention {
	return &MultiHeadAttention{
		Wq:   NewLinear(name+".q", d, d, true, rng),
		Wk:   NewLinear(name+".k", d, d, true, rng),
		Wv:   NewLinear(name+".v", d, d, true, rng),
		Wo:   NewLinear(name+".o", d, d, true, rng),
		Core: NewAttnCore(d, heads, qLen, kLen, causal),
	}
}
