package nn

import (
	"math/rand"

	"pipemare/internal/tensor"
)

// Embedding maps integer token ids (carried in a float64 tensor of shape
// (B, T)) to dense vectors, producing (B*T, D). The token id tensor is not
// differentiable; Backward returns a zero tensor of the input shape.
type Embedding struct {
	W *Param // table, shape (V, D)
}

type embState struct {
	ids   []int
	inShp []int
}

// NewEmbedding returns an embedding table with N(0, 0.02²) initialization.
func NewEmbedding(name string, vocab, d int, rng *rand.Rand) *Embedding {
	e := &Embedding{W: NewParam(name+".W", vocab, d)}
	e.W.InitNormal(rng, 0.02)
	return e
}

// Forward gathers rows of the table for each token id.
func (e *Embedding) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	n := x.Size()
	d := e.W.Data.Shape[1]
	ids := t.Ints(n)
	inShp := t.Ints(len(x.Shape))
	copy(inShp, x.Shape)
	out := t.NewTensor(n, d)
	// Token ids arrive as float64 regardless of the model dtype (FlatAt
	// converts); the gathered rows copy raw since out and the table share
	// the model dtype.
	for i := 0; i < n; i++ {
		id := int(x.FlatAt(i))
		ids[i] = id
		tensor.CopyRange(out, i*d, e.W.Data, id*d, d)
	}
	t.embs.push(embState{ids, inShp})
	return out
}

// Backward scatter-adds dy rows into a compact per-unique-token temporary
// and folds each touched table row into the gradient with one add per
// element, keeping the one-add-per-element-per-call accumulation contract
// (see Param.Grad) even when a token id occurs several times in the
// microbatch — without touching the O(V·d) untouched remainder of the
// table.
func (e *Embedding) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	st := t.embs.pop()
	v, d := e.W.Data.Shape[0], e.W.Data.Shape[1]
	n := len(st.ids)
	rowOf := t.Ints(v)
	for i := range rowOf {
		rowOf[i] = -1
	}
	uniq := t.Ints(n)
	dW := t.NewTensor(n, d)
	dW.Zero() // embScatter adds into it
	if dy.DType() == tensor.Float32 {
		k := embScatter(tensor.F32(dW), tensor.F32(dy), st.ids, rowOf, uniq, d)
		embFold(tensor.F32(e.W.Grad), tensor.F32(dW), uniq, k, d)
	} else {
		k := embScatter(tensor.F64(dW), tensor.F64(dy), st.ids, rowOf, uniq, d)
		embFold(tensor.F64(e.W.Grad), tensor.F64(dW), uniq, k, d)
	}
	dx := t.NewTensor(st.inShp...)
	dx.Zero()
	return dx
}

// embScatter compacts dy rows onto per-unique-token rows of dW, returning
// the number of unique tokens seen.
func embScatter[T tensor.Elem](dW, dy []T, ids, rowOf, uniq []int, d int) int {
	k := 0
	for i, id := range ids {
		r := rowOf[id]
		if r < 0 {
			r = k
			rowOf[id] = r
			uniq[k] = id
			k++
		}
		row := dy[i*d : (i+1)*d]
		g := dW[r*d : (r+1)*d]
		for j := range row {
			g[j] += row[j]
		}
	}
	return k
}

// embFold adds each compacted row into the table gradient: one add per
// touched element per call.
func embFold[T tensor.Elem](grad, dW []T, uniq []int, k, d int) {
	for r := 0; r < k; r++ {
		g := grad[uniq[r]*d : (uniq[r]+1)*d]
		src := dW[r*d : (r+1)*d]
		for j := range src {
			g[j] += src[j]
		}
	}
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// PositionalEncoding adds a learned position embedding of shape (T, D) to a
// (B*T, D) activation with fixed sequence length T.
type PositionalEncoding struct {
	W      *Param // (T, D)
	SeqLen int
}

// NewPositionalEncoding returns a learned positional encoding.
func NewPositionalEncoding(name string, seqLen, d int, rng *rand.Rand) *PositionalEncoding {
	p := &PositionalEncoding{W: NewParam(name+".W", seqLen, d), SeqLen: seqLen}
	p.W.InitNormal(rng, 0.02)
	return p
}

// Forward adds the position embedding row-cyclically.
func (p *PositionalEncoding) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	return p.forwardRows(t, x, 0, p.SeqLen)
}

// forwardRows adds position off + i%rows to row i: Forward is (0, SeqLen);
// a decode step, one row per sequence, is (pos, 1).
func (p *PositionalEncoding) forwardRows(t *Tape, x *tensor.Tensor, off, rows int) *tensor.Tensor {
	n, d := x.Shape[0], x.Shape[1]
	out := t.NewTensor(n, d)
	if x.DType() == tensor.Float32 {
		peFwd(tensor.F32(out), tensor.F32(x), tensor.F32(p.W.Data), n, d, off, rows)
	} else {
		peFwd(tensor.F64(out), tensor.F64(x), tensor.F64(p.W.Data), n, d, off, rows)
	}
	return out
}

func peFwd[T tensor.Elem](out, x, w []T, n, d, off, rows int) {
	for i := 0; i < n; i++ {
		ti := off + i%rows
		for j := 0; j < d; j++ {
			out[i*d+j] = x[i*d+j] + w[ti*d+j]
		}
	}
}

// Backward accumulates the position gradient (via a temporary and a single
// AddInto — see Param.Grad) and passes dy through.
func (p *PositionalEncoding) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	n, d := dy.Shape[0], dy.Shape[1]
	dW := t.NewTensor(p.W.Data.Shape...)
	dW.Zero() // peBwd adds into it
	if dy.DType() == tensor.Float32 {
		peBwd(tensor.F32(dW), tensor.F32(dy), n, d, p.SeqLen)
	} else {
		peBwd(tensor.F64(dW), tensor.F64(dy), n, d, p.SeqLen)
	}
	tensor.AddInto(p.W.Grad, dW)
	return dy
}

func peBwd[T tensor.Elem](dW, dy []T, n, d, seqLen int) {
	for i := 0; i < n; i++ {
		ti := i % seqLen
		for j := 0; j < d; j++ {
			dW[ti*d+j] += dy[i*d+j]
		}
	}
}

// Params returns the position table.
func (p *PositionalEncoding) Params() []*Param { return []*Param{p.W} }
