package model

import (
	"runtime"
	"sync"

	"pipemare/internal/nn"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// progBuilder accumulates a weight-group list and the op program aligned
// with it. Ops are appended in forward order; each op names the group it
// belongs to, so the group order (and therefore any stage partition of the
// groups) induces contiguous op ranges per stage. Weightless glue —
// activations, residual joins, attention cores, pooling, the loss — is
// attached to a neighbouring weight group.
type progBuilder struct {
	groups  []pipeline.ParamGroup
	ops     []nn.Op
	groupOf []int
	nreg    int
}

// reg allocates a fresh dataflow register.
func (b *progBuilder) reg() nn.Reg {
	r := nn.Reg(b.nreg)
	b.nreg++
	return r
}

// group appends a weight group and returns its index.
func (b *progBuilder) group(name string, ps []*nn.Param) int {
	b.groups = append(b.groups, pipeline.ParamGroup{Name: name, Params: ps})
	return len(b.groups) - 1
}

// op appends an op belonging to group g.
func (b *progBuilder) op(g int, o nn.Op) {
	b.ops = append(b.ops, o)
	b.groupOf = append(b.groupOf, g)
}

// apply appends a unary layer op in group g and returns its output register.
func (b *progBuilder) apply(g int, l nn.Layer, in nn.Reg) nn.Reg {
	out := b.reg()
	b.op(g, &nn.ApplyOp{L: l, In: in, Out: out})
	return out
}

// add appends a residual join x + y in group g.
func (b *progBuilder) add(g int, x, y nn.Reg) nn.Reg {
	out := b.reg()
	b.op(g, &nn.AddOp{A: x, B: y, Out: out})
	return out
}

// attnCore appends a weightless attention core in group g.
func (b *progBuilder) attnCore(g int, core *nn.AttnCore, q, k, v nn.Reg) nn.Reg {
	out := b.reg()
	b.op(g, &nn.AttnCoreOp{Core: core, Q: q, K: k, V: v, Out: out})
	return out
}

// loss appends the cross-entropy loss op in group g.
func (b *progBuilder) loss(g int, ce *nn.CrossEntropy, logits nn.Reg) {
	b.op(g, &nn.LossOp{CE: ce, Logits: logits})
}

// build finalizes the program.
func (b *progBuilder) build() *nn.Program {
	return &nn.Program{Ops: b.ops, GroupOf: b.groupOf, NumRegs: b.nreg}
}

// setProgDType casts a compiled model to dt: every weight group's
// parameters (master, gradient, and decoupled backward weights), the
// machines' tape arenas so activations come out in dt, and the weightless
// attention cores' analytic cost-model element width.
func setProgDType(dt tensor.DType, groups []pipeline.ParamGroup, prog *nn.Program, machines ...*nn.Machine) {
	for _, g := range groups {
		for _, p := range g.Params {
			p.CastTo(dt)
		}
	}
	for _, op := range prog.Ops {
		if a, ok := op.(*nn.AttnCoreOp); ok {
			a.Core.ElemBytes = dt.Size()
		}
	}
	for _, m := range machines {
		m.Tape.SetDType(dt)
	}
}

// gatherRowsTape selects rows (first axis) of x at the given indices into
// a tensor from the machine tape's arena. Datasets stay float64 whatever
// the model dtype; when the tape allocates float32, each gathered element
// is cast here — the single rounding that defines the float32 ground
// truth for inputs (token ids are small integers, so they cast exactly).
func gatherRowsTape(t *nn.Tape, x *tensor.Tensor, idx []int) *tensor.Tensor {
	rowLen := x.Size() / x.Shape[0]
	var buf [4]int // the tape copies a shape, so this one stays on the stack
	shape := append(append(buf[:0], len(idx)), x.Shape[1:]...)
	out := t.NewTensor(shape...)
	if out.DType() == x.DType() {
		for i, ix := range idx {
			tensor.CopyRange(out, i*rowLen, x, ix*rowLen, rowLen)
		}
		return out
	}
	for i, ix := range idx {
		for j := 0; j < rowLen; j++ {
			out.SetFlat(i*rowLen+j, x.FlatAt(ix*rowLen+j))
		}
	}
	return out
}

// evalWorkers returns how many goroutines evaluate n test rows: one per
// P (GOMAXPROCS), and no more than there are rows.
func evalWorkers(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// forEvalChunks splits the n test rows into w contiguous shares and runs
// share g on a goroutine of its own, calling fn(g, lo, hi) for its rows
// in ascending chunks [lo, hi) of ⌈chunk/w⌉ rows: w machines each fed a
// w-th of the chunk hold, together, the arenas one machine fed the whole
// chunk does. It returns when every share has; at w = 1 it runs on the
// caller's goroutine and allocates nothing.
func forEvalChunks(n, w, chunk int, fn func(g, lo, hi int)) {
	size := (chunk + w - 1) / w
	if w == 1 {
		evalShare(fn, 0, 0, n, size)
		return
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evalShare(fn, g, g*n/w, (g+1)*n/w, size)
		}()
	}
	evalShare(fn, 0, 0, n/w, size)
	wg.Wait()
}

// evalShare calls fn(g, lo, hi) for the rows [from, to) in ascending
// chunks of size rows.
func evalShare(fn func(g, lo, hi int), g, from, to, size int) {
	for lo := from; lo < to; lo += size {
		fn(g, lo, min(lo+size, to))
	}
}

// evalRows binds test rows [lo, hi) of x into register r of m, through an
// index list on m's tape.
func evalRows(m *nn.Machine, r nn.Reg, x *tensor.Tensor, lo, hi int) {
	idx := m.Tape.Ints(hi - lo)
	for i := range idx {
		idx[i] = lo + i
	}
	m.SetVal(r, gatherRowsTape(&m.Tape, x, idx))
}
