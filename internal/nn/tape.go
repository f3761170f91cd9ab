package nn

import (
	"math"

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
// Every record has a type: each kind lives on a typed stack of its own
// (a saved input tensor, a norm's, the loss's, a conv's, a pooling's, an
// embedding's, an attention core's record), so saving one boxes nothing
// and popping one asserts nothing. Each stack is strict on its own,
// because every layer pushes to one of them and pops in reverse order
// from the same one.
//
// The tape doubles as a scratch arena: NewTensor, Floats and Ints hand out
// buffers that are recycled positionally on Reset. A training step runs
// the same op sequence with the same shapes every microbatch, so after the
// first microbatch the arena serves every request from its free list and
// the hot path stops allocating. A pass also rewinds the arena at
// weight-group boundaries, once it has carried the values still live
// across them: a backward down to where it started, above the forward's
// records (Program.BackwardRange), an evaluation to the start
// (Program.Infer). So a machine's arena holds its forward's activations
// and one window of a few groups' temporaries, not the whole network's.
//
// A Tape is not safe for concurrent use; every microbatch in flight owns
// its own.
type Tape struct {
	tensors stack[*tensor.Tensor]
	norms   stack[normRecord]
	ces     stack[ceRecord]
	convs   stack[convState]
	gaps    stack[gapState]
	embs    stack[embState]
	attns   stack[attnState]

	dt     tensor.DType
	tens   []*tensor.Tensor
	tpos   int
	handed int // bytes of every tensor NewTensor has handed out
	flts   [][]float64
	fpos   int
	ints   [][]int
	ipos   int
}

// stack is one kind of tape record, last in first out.
type stack[T any] []T

func (s *stack[T]) push(v T) { *s = append(*s, v) }

func (s *stack[T]) pop() T {
	n := len(*s) - 1
	v := (*s)[n]
	var zero T
	(*s)[n] = zero
	*s = (*s)[:n]
	return v
}

func (s *stack[T]) reset() {
	clear(*s)
	*s = (*s)[:0]
}

// SetDType switches the dtype of tensors handed out by NewTensor. Arena
// tensors of the other dtype are dropped on their next positional reuse.
func (t *Tape) SetDType(dt tensor.DType) { t.dt = dt }

// Push saves x for the matching Pop in the op's Backward.
func (t *Tape) Push(x *tensor.Tensor) { t.tensors.push(x) }

// Pop returns the most recently pushed tensor.
func (t *Tape) Pop() *tensor.Tensor { return t.tensors.pop() }

// normRecord is what LayerNorm and GroupNorm save for their Backward.
type normRecord struct {
	xhat    *tensor.Tensor
	invStd  []float64
	c, h, w int // GroupNorm's channels and spatial size; LayerNorm's are 0
}

// ceRecord is what CrossEntropy saves for its Backward.
type ceRecord struct {
	probs  *tensor.Tensor
	labels []int
	count  int
}

// NewTensor returns a tensor of the given shape backed by the tape's
// arena. Its contents are unspecified — a recycled buffer still holds
// what the previous microbatch wrote there — so the caller writes every
// element before reading it, or zeroes the tensor first when it adds into
// it. Under the race detector every tensor handed out, fresh or recycled,
// is filled with NaN, so a call site that reads before it writes shows in
// every curve. The tensor is valid until the next Reset; it must not
// escape the microbatch that allocated it. A position whose buffer is of
// another shape re-views it when it is large enough (tensor.Resize), so
// runs whose shapes differ by position — Infer's windows, a decode step's
// growing keys — settle on buffers of each position's largest request.
func (t *Tape) NewTensor(shape ...int) *tensor.Tensor {
	var c *tensor.Tensor
	switch {
	case t.tpos == len(t.tens):
		c = tensor.NewOf(t.dt, shape...)
		t.tens = append(t.tens, c)
	case t.tens[t.tpos].DType() == t.dt && (sameShape(t.tens[t.tpos].Shape, shape) || t.tens[t.tpos].Resize(shape...)):
		c = t.tens[t.tpos]
	default:
		c = tensor.NewOf(t.dt, shape...)
		t.tens[t.tpos] = c
	}
	t.tpos++
	t.handed += c.Size() * t.dt.Size()
	if raceEnabled {
		c.Fill(math.NaN())
	}
	return c
}

// Add returns a + b elementwise in a fresh arena tensor (the residual
// join shared by layers and ops, tensor.SumInto).
func (t *Tape) Add(a, b *tensor.Tensor) *tensor.Tensor {
	out := t.NewTensor(a.Shape...)
	tensor.SumInto(out, a, b)
	return out
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

// Reset clears the record stacks and rewinds the arenas so their buffers
// are reused by the next run. Everything previously handed out is
// invalidated.
func (t *Tape) Reset() {
	t.tensors.reset()
	t.norms.reset()
	t.ces.reset()
	t.convs.reset()
	t.gaps.reset()
	t.embs.reset()
	t.attns.reset()
	t.rewind(tapeMark{})
}

// tapeMark is a position in a tape's three arenas: tensors, floats, ints.
type tapeMark struct{ t, f, i int }

// mark returns the arenas' next positions.
func (t *Tape) mark() tapeMark { return tapeMark{t.tpos, t.fpos, t.ipos} }

// held returns the positions past every buffer the arenas hold.
func (t *Tape) held() tapeMark { return tapeMark{len(t.tens), len(t.flts), len(t.ints)} }

// rewind moves the arenas back to k, so the buffers from k on are handed
// out again and what they held is invalidated. The record stacks stay.
func (t *Tape) rewind(k tapeMark) { t.tpos, t.fpos, t.ipos = k.t, k.f, k.i }

// bytes returns the bytes of the arena buffers from position a up to b.
func (t *Tape) bytes(a, b tapeMark) int {
	n := 0
	for _, x := range t.tens[a.t:b.t] {
		n += x.Size() * x.DType().Size()
	}
	for _, s := range t.flts[a.f:b.f] {
		n += 8 * cap(s)
	}
	for _, s := range t.ints[a.i:b.i] {
		n += 8 * cap(s)
	}
	return n
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
