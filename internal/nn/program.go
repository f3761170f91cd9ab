package nn

import (
	"fmt"

	"pipemare/internal/tensor"
)

// This file implements the stage-splittable execution form of a network:
// a Program of Ops over a register file. Models compile their forward
// graph into a linear op list whose ops are aligned with their weight
// groups, so any pipeline.Partition of the groups induces a contiguous op
// range per stage, and boundary activations are simply the registers that
// are live across the cut. A Machine holds one in-flight microbatch's
// registers, gradients and activation tape; stages of the same microbatch
// always execute on one goroutine at a time, handing the machine along the
// pipeline, so machines need no internal locking.

// Reg identifies a dataflow value (an activation tensor) in a Program.
type Reg int

// Op is one step of a compiled network: a unit of forward compute whose
// weights all belong to one weight group (possibly none). Forward reads
// and writes machine registers; Backward consumes the output registers'
// gradients and accumulates input-register gradients.
type Op interface {
	Forward(m *Machine)
	Backward(m *Machine)
}

// Program is a compiled network: ops in forward order plus, for each op,
// the index of the weight group it belongs to. GroupOf must be
// non-decreasing so that any contiguous partition of the groups induces a
// contiguous partition of the ops.
type Program struct {
	Ops     []Op
	GroupOf []int // op index → weight-group index
	NumRegs int
}

// StageRanges returns, for each of p stages, the half-open op range
// [lo[s], hi[s]) owned by the stage under the given group→stage
// assignment (pipeline.Partition.StageOf). Every op of group g runs on
// stage stageOf[g].
func (pr *Program) StageRanges(stageOf []int, p int) (lo, hi []int, err error) {
	lo = make([]int, p)
	hi = make([]int, p)
	prev := 0
	for i := range lo {
		lo[i] = -1
	}
	for op, g := range pr.GroupOf {
		if g < prev {
			return nil, nil, fmt.Errorf("nn: program group order regresses at op %d (group %d after %d)", op, g, prev)
		}
		prev = g
		s := stageOf[g]
		if lo[s] < 0 {
			lo[s] = op
		}
		hi[s] = op + 1
	}
	// Stages with no ops (cannot happen when every group has at least one
	// op, which compile enforces) collapse to empty ranges.
	next := len(pr.Ops)
	for s := p - 1; s >= 0; s-- {
		if lo[s] < 0 {
			lo[s], hi[s] = next, next
		} else {
			next = lo[s]
		}
	}
	return lo, hi, nil
}

// ForwardRange executes ops [lo, hi) forward on m.
func (pr *Program) ForwardRange(m *Machine, lo, hi int) {
	for i := lo; i < hi; i++ {
		pr.Ops[i].Forward(m)
	}
}

// BackwardRange executes ops [lo, hi) backward on m, in reverse order.
func (pr *Program) BackwardRange(m *Machine, lo, hi int) {
	for i := hi - 1; i >= lo; i-- {
		pr.Ops[i].Backward(m)
	}
}

// DecodeStep runs ops [lo, hi) of a causal decoder for greedy step pos on
// one new row per sequence. Register in holds the step's (B, 1) token ids,
// and every op downstream of it computes B rows: row b is sequence b at
// position pos. An op not downstream of in projects per-sequence context
// (an encoder memory): it runs at pos 0 only, into the machine's K/V
// cache, where the cross-attention cores read it and the causal cores
// keep the keys and values of the positions before pos.
//
// Each output row equals row b·L+pos (L the decoder length) of
// ForwardRange over the whole sequences, bit for bit: the GEMM
// accumulates every element from zero in ascending order whatever the
// rows beside it, and a masked attention term is exp(−∞) = 0, which
// leaves the softmax sum and the probability-weighted value sum unchanged.
//
// Before each step reset m and bind in, plus at pos 0 the context
// registers; the K/V cache survives ResetRun until the next pos 0.
func (pr *Program) DecodeStep(m *Machine, lo, hi int, in Reg, pos int) {
	if pos == 0 {
		if m.kv == nil {
			m.kv = make([]*tensor.Tensor, len(m.regs))
		}
		m.kvTape.SetDType(m.Tape.dt)
		m.kvTape.Reset()
	}
	step := make([]bool, pr.NumRegs) // registers holding this step's B rows
	step[in] = true
	for _, op := range pr.Ops[lo:hi] {
		switch o := op.(type) {
		case *ApplyOp:
			if !step[o.In] { // a projection of the context
				if pos == 0 {
					m.kv[o.Out] = o.L.Forward(&m.kvTape, m.Val(o.In))
				}
				continue
			}
			if pe, ok := o.L.(*PositionalEncoding); ok {
				m.SetVal(o.Out, pe.forwardRows(&m.Tape, m.Val(o.In), pos, 1))
			} else {
				o.Forward(m)
			}
			step[o.Out] = true
		case *AddOp:
			o.Forward(m)
			step[o.Out] = true
		case *AttnCoreOp:
			o.decode(m, pos)
			step[o.Out] = true
		default:
			panic(fmt.Sprintf("nn: DecodeStep cannot run %T", op))
		}
	}
}

// Machine is the per-microbatch execution state of a Program: the forward
// register file, the gradient registers and the activation tape. One
// machine serves one in-flight microbatch; the pipeline hands it from
// stage to stage, so at most one goroutine touches it at a time.
type Machine struct {
	Tape   Tape
	regs   []*tensor.Tensor
	grads  []*tensor.Tensor
	Labels []int   // loss-op labels, bound per microbatch
	Loss   float64 // written by the loss op

	// DecodeStep's K/V cache, by register, and its arena: reset at pos 0,
	// kept across ResetRun.
	kv     []*tensor.Tensor
	kvTape Tape
}

// NewMachine returns a machine with room for the program's registers.
func NewMachine(numRegs int) *Machine {
	return &Machine{regs: make([]*tensor.Tensor, numRegs), grads: make([]*tensor.Tensor, numRegs)}
}

// ResetRun clears registers, gradients and the tape for a fresh forward
// pass, recycling the tape arena. Tensors handed out by the previous run
// are invalidated.
func (m *Machine) ResetRun() {
	for i := range m.regs {
		m.regs[i] = nil
		m.grads[i] = nil
	}
	m.Loss = 0
	m.Tape.Reset()
}

// Val returns the value of register r.
func (m *Machine) Val(r Reg) *tensor.Tensor { return m.regs[r] }

// SetVal writes the value of register r.
func (m *Machine) SetVal(r Reg, v *tensor.Tensor) { m.regs[r] = v }

// AddGradOwned folds g into register r's gradient, taking ownership: when
// r has no gradient yet, g itself becomes the accumulator (and may be
// mutated by later contributions). Callers must pass a tensor nothing else
// will read afterwards — a freshly computed layer input-gradient
// qualifies; a tensor also handed to another register does not (use
// AddGrad for the second one).
func (m *Machine) AddGradOwned(r Reg, g *tensor.Tensor) {
	if m.grads[r] == nil {
		m.grads[r] = g
		return
	}
	tensor.AddInto(m.grads[r], g)
}

// AddGrad folds g into register r's gradient without taking ownership: the
// first contribution is copied into an arena tensor.
func (m *Machine) AddGrad(r Reg, g *tensor.Tensor) {
	if m.grads[r] == nil {
		acc := m.Tape.NewTensor(g.Shape...)
		acc.CopyFrom(g)
		m.grads[r] = acc
		return
	}
	tensor.AddInto(m.grads[r], g)
}

// takeGrad returns r's gradient for consumption by the op that wrote r,
// failing loudly on a dataflow bug (a produced value whose gradient never
// arrived).
func (m *Machine) takeGrad(r Reg) *tensor.Tensor {
	g := m.grads[r]
	if g == nil {
		panic(fmt.Sprintf("nn: register %d has no gradient at its producer", r))
	}
	return g
}

// --- generic ops ---

// ApplyOp applies a unary Layer: Out = L(In).
type ApplyOp struct {
	L       Layer
	In, Out Reg
}

// Forward runs the layer on the input register.
func (o *ApplyOp) Forward(m *Machine) {
	m.SetVal(o.Out, o.L.Forward(&m.Tape, m.Val(o.In)))
}

// Backward routes the output gradient through the layer.
func (o *ApplyOp) Backward(m *Machine) {
	dx := o.L.Backward(&m.Tape, m.takeGrad(o.Out))
	m.AddGradOwned(o.In, dx)
}

// AddOp is a residual join: Out = A + B.
type AddOp struct {
	A, B, Out Reg
}

// Forward adds the two inputs elementwise.
func (o *AddOp) Forward(m *Machine) {
	m.SetVal(o.Out, m.Tape.Add(m.Val(o.A), m.Val(o.B)))
}

// Backward fans the output gradient out to both inputs. The first target
// may adopt the gradient tensor; the second must copy, or the two
// accumulators would alias.
func (o *AddOp) Backward(m *Machine) {
	dy := m.takeGrad(o.Out)
	m.AddGradOwned(o.A, dy)
	m.AddGrad(o.B, dy)
}

// AttnCoreOp runs a weightless attention core: Out = core(Q, K, V).
type AttnCoreOp struct {
	Core         *AttnCore
	Q, K, V, Out Reg
}

// Forward runs scaled dot-product attention over the projected inputs.
func (o *AttnCoreOp) Forward(m *Machine) {
	m.SetVal(o.Out, o.Core.Forward(&m.Tape, m.Val(o.Q), m.Val(o.K), m.Val(o.V)))
}

// decode runs the core for DecodeStep: the B step queries, one per
// sequence, attend over keys and values in the machine's K/V cache. A
// causal core stores its step rows there as position pos of each sequence
// and attends over positions ≤ pos; a cross core attends over the whole
// context projected at pos 0.
func (o *AttnCoreOp) decode(m *Machine, pos int) {
	a, q := o.Core, m.Val(o.Q)
	b, kLen := q.Shape[0], a.KLen
	if a.Causal {
		if pos == 0 {
			m.kv[o.K], m.kv[o.V] = m.kvTape.NewTensor(b*a.KLen, a.D), m.kvTape.NewTensor(b*a.KLen, a.D)
		}
		k, v := m.Val(o.K), m.Val(o.V)
		for i := 0; i < b; i++ {
			tensor.CopyRange(m.kv[o.K], (i*a.KLen+pos)*a.D, k, i*a.D, a.D)
			tensor.CopyRange(m.kv[o.V], (i*a.KLen+pos)*a.D, v, i*a.D, a.D)
		}
		kLen = pos + 1
	}
	y, _ := a.attend(&m.Tape, q, m.kv[o.K], m.kv[o.V], 1, kLen, a.KLen)
	m.SetVal(o.Out, y)
}

// Backward propagates to the query, key and value registers.
func (o *AttnCoreOp) Backward(m *Machine) {
	dq, dk, dv := o.Core.Backward(&m.Tape, m.takeGrad(o.Out))
	m.AddGradOwned(o.Q, dq)
	m.AddGradOwned(o.K, dk)
	m.AddGradOwned(o.V, dv)
}

// LossOp computes the scalar training loss from the logits register and
// the machine's bound labels, writing Machine.Loss. It seeds the backward
// pass.
type LossOp struct {
	CE     *CrossEntropy
	Logits Reg
}

// Forward computes the mean cross-entropy of the bound labels.
func (o *LossOp) Forward(m *Machine) {
	m.Loss = o.CE.Forward(&m.Tape, m.Val(o.Logits), m.Labels)
}

// Backward seeds the logits gradient.
func (o *LossOp) Backward(m *Machine) {
	m.AddGradOwned(o.Logits, o.CE.Backward(&m.Tape))
}
