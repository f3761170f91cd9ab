package nn

import "pipemare/internal/tensor"

// CrossEntropy computes mean softmax cross-entropy over (N, C) logits with
// integer labels. Labels equal to Ignore (default -1) are masked out, which
// the translation task uses for padding. Like the layers, it keeps its
// per-call state (probabilities, labels) on the tape so several in-flight
// microbatches can share one instance.
type CrossEntropy struct {
	Ignore int
}

// NewCrossEntropy returns a cross-entropy loss that ignores label -1.
func NewCrossEntropy() *CrossEntropy { return &CrossEntropy{Ignore: -1} }

// Forward returns the mean negative log-likelihood of labels under the
// row-softmax of logits. The labels slice is retained on the tape until
// the matching Backward.
func (c *CrossEntropy) Forward(t *Tape, logits *tensor.Tensor, labels []int) float64 {
	n, cl := logits.Shape[0], logits.Shape[1]
	if n != len(labels) {
		panic("nn: CrossEntropy label count mismatch")
	}
	probs := t.NewTensor(n, cl)
	tensor.SoftmaxRowsInto(probs, logits)
	lse := t.Floats(n)
	tensor.LogSumExpRowsInto(lse, logits)
	loss, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if labels[i] == c.Ignore {
			continue
		}
		loss += lse[i] - logits.FlatAt(i*cl+labels[i])
		cnt++
	}
	t.ces.push(ceRecord{probs, labels, cnt})
	if cnt == 0 {
		return 0
	}
	return loss / float64(cnt)
}

// Backward returns dLoss/dlogits = (softmax − onehot)/count, with ignored
// rows zeroed.
func (c *CrossEntropy) Backward(t *Tape) *tensor.Tensor {
	st := t.ces.pop()
	n, cl := st.probs.Shape[0], st.probs.Shape[1]
	out := t.NewTensor(n, cl)
	out.Zero() // ceBwd skips the ignored rows
	if st.count == 0 {
		return out
	}
	inv := 1 / float64(st.count)
	if out.DType() == tensor.Float32 {
		ceBwd(tensor.F32(out), tensor.F32(st.probs), st.labels, c.Ignore, cl, inv)
	} else {
		ceBwd(tensor.F64(out), tensor.F64(st.probs), st.labels, c.Ignore, cl, inv)
	}
	return out
}

func ceBwd[T tensor.Elem](out, probs []T, labels []int, ignore, cl int, inv float64) {
	for i := range labels {
		if labels[i] == ignore {
			continue
		}
		for j := 0; j < cl; j++ {
			out[i*cl+j] = T(float64(probs[i*cl+j]) * inv)
		}
		out[i*cl+labels[i]] -= T(inv)
	}
}
