package nn

import (
	"pipemare/internal/tensor"
)

// Tape is a per-call activation context. Layers push whatever their
// Backward needs onto the tape during Forward and pop it back in Backward;
// because forward and backward traverse a network in exactly opposite
// orders, the tape is a strict stack. Layers themselves hold no per-call
// state, so one set of layers (one set of weights) can serve many
// concurrently in-flight microbatches — each with its own tape — which is
// what lets the concurrent engine overlap pipeline stages.
//
// The tape doubles as a scratch arena: NewTensor, Floats and Ints hand out
// buffers that are recycled positionally on Reset. A training step runs
// the same op sequence with the same shapes every microbatch, so after the
// first microbatch the arena serves every request from its free list and
// the hot path stops allocating.
//
// A Tape is not safe for concurrent use; every microbatch in flight owns
// its own.
type Tape struct {
	stack []any

	dt   tensor.DType
	tens []*tensor.Tensor
	tpos int
	flts [][]float64
	fpos int
	ints [][]int
	ipos int
}

// SetDType switches the dtype of tensors handed out by NewTensor. Arena
// tensors of the other dtype are dropped on their next positional reuse.
func (t *Tape) SetDType(dt tensor.DType) { t.dt = dt }

// Push saves v for the matching Pop in the layer's Backward.
func (t *Tape) Push(v any) { t.stack = append(t.stack, v) }

// Pop returns the most recently pushed value.
func (t *Tape) Pop() any {
	n := len(t.stack) - 1
	v := t.stack[n]
	t.stack[n] = nil
	t.stack = t.stack[:n]
	return v
}

// NewTensor returns a zeroed tensor of the given shape backed by the
// tape's arena. The tensor is valid until the next Reset; it must not
// escape the microbatch that allocated it.
func (t *Tape) NewTensor(shape ...int) *tensor.Tensor {
	if t.tpos < len(t.tens) {
		c := t.tens[t.tpos]
		if c.DType() == t.dt && sameShape(c.Shape, shape) {
			t.tpos++
			c.Zero()
			return c
		}
		c = tensor.NewOf(t.dt, shape...)
		t.tens[t.tpos] = c
		t.tpos++
		return c
	}
	c := tensor.NewOf(t.dt, shape...)
	t.tens = append(t.tens, c)
	t.tpos = len(t.tens)
	return c
}

// Add returns a + b elementwise in a fresh arena tensor (the residual-join
// kernel shared by layers and ops).
func (t *Tape) Add(a, b *tensor.Tensor) *tensor.Tensor {
	out := t.NewTensor(a.Shape...)
	if out.DType() == tensor.Float32 {
		addRows(tensor.F32(out), tensor.F32(a), tensor.F32(b))
	} else {
		addRows(tensor.F64(out), tensor.F64(a), tensor.F64(b))
	}
	return out
}

func addRows[T tensor.Elem](out, a, b []T) {
	for i := range out {
		out[i] = a[i] + b[i]
	}
}

// Floats returns a zeroed float scratch slice of length n from the arena.
func (t *Tape) Floats(n int) []float64 {
	if t.fpos < len(t.flts) && cap(t.flts[t.fpos]) >= n {
		s := t.flts[t.fpos][:n]
		t.fpos++
		for i := range s {
			s[i] = 0
		}
		return s
	}
	s := make([]float64, n)
	if t.fpos < len(t.flts) {
		t.flts[t.fpos] = s
	} else {
		t.flts = append(t.flts, s)
	}
	t.fpos++
	return s
}

// Ints returns an int scratch slice of length n from the arena. Contents
// are unspecified; callers overwrite every element.
func (t *Tape) Ints(n int) []int {
	if t.ipos < len(t.ints) && cap(t.ints[t.ipos]) >= n {
		s := t.ints[t.ipos][:n]
		t.ipos++
		return s
	}
	s := make([]int, n)
	if t.ipos < len(t.ints) {
		t.ints[t.ipos] = s
	} else {
		t.ints = append(t.ints, s)
	}
	t.ipos++
	return s
}

// Reset clears the state stack and rewinds the arenas so their buffers are
// reused by the next run. Everything previously handed out is invalidated.
func (t *Tape) Reset() {
	for i := range t.stack {
		t.stack[i] = nil
	}
	t.stack = t.stack[:0]
	t.tpos, t.fpos, t.ipos = 0, 0, 0
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
