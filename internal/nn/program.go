package nn

import (
	"fmt"
	"sync"

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
// gradients and accumulates input-register gradients. Regs names the
// registers Forward reads and the one it writes, out = -1 when it writes
// none: the program's liveness follows from those names alone.
type Op interface {
	Forward(m *Machine)
	Backward(m *Machine)
	Regs() (in []Reg, out Reg)
}

// Program is a compiled network: ops in forward order plus, for each op,
// the index of the weight group it belongs to. GroupOf must be
// non-decreasing so that any contiguous partition of the groups induces a
// contiguous partition of the ops.
type Program struct {
	Ops     []Op
	GroupOf []int // op index → weight-group index
	NumRegs int

	carryOnce sync.Once
	carry     [][]Reg // per op ending a group, the registers live across it
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
	m.inBwd = false
	for i := lo; i < hi; i++ {
		pr.Ops[i].Forward(m)
	}
}

// BackwardRange executes ops [lo, hi) backward on m, in reverse order.
// The first call after a forward marks where the backward starts on m's
// tape. At each weight-group boundary it passes, it takes Infer's rewind
// step (Machine.rewind) for the gradients still accumulating — those of
// registers written at or below the boundary and read above it — down to
// that mark, never below it, where the forward records the lower ops will
// pop lie. So a machine holds a window of a few groups' backward
// temporaries, not the whole network's, across however many calls one
// backward takes. The gradients are those of a backward without rewinds,
// bit for bit: later contributions add into a carried copy in the same
// order.
func (pr *Program) BackwardRange(m *Machine, lo, hi int) {
	live := pr.carries()
	if !m.inBwd {
		m.inBwd, m.bwd, m.since = true, m.Tape.mark(), m.Tape.handed
	}
	for i := hi - 1; i >= lo; i-- {
		pr.Ops[i].Backward(m)
		if i > 0 && pr.GroupOf[i-1] != pr.GroupOf[i] {
			m.rewind(live[i-1], m.grads, m.bwd)
		}
	}
}

// carryRatio is when a pass rewinds its tape at a weight-group boundary:
// once the tape has handed out carryRatio times the bytes of the values
// the rewind copies, so that the copies add at most that share to the
// window's own writes. It is the only rule, so a deep network of small
// activations rewinds every few groups too.
const carryRatio = 8

// Infer runs ops [lo, hi) forward on m for a pass no backward follows —
// an evaluation. Its values are ForwardRange's, bit for bit, but its
// arena does not grow with the range: at each weight-group boundary it
// takes the rewind step BackwardRange takes (Machine.rewind) for the
// registers live across the boundary — written by then, and read by a
// later op of the program — and rewinds the whole tape, records too.
// Every register an op at or past hi reads — what the caller reads next
// — therefore survives, valid until m's next run; a register no later op
// reads may not.
func (pr *Program) Infer(m *Machine, lo, hi int) {
	live := pr.carries()
	m.since = m.Tape.handed
	for i := lo; i < hi; i++ {
		pr.Ops[i].Forward(m)
		if i+1 < hi && pr.GroupOf[i+1] != pr.GroupOf[i] && m.rewind(live[i], m.regs, tapeMark{}) {
			m.Tape.Reset()
		}
	}
}

// rewind is the step both passes take at a weight-group boundary. vals
// holds the pass's values by register (the forward registers, or the
// gradients), and live names those a later step still reads. Once the
// tape has handed out carryRatio times the bytes of the live values since
// the pass began or last rewound, it copies them into carry[carried] —
// the other carry arena holds the last rewind's copies, which these
// copies may read — points vals at the copies, rewinds the tape's arenas
// to from, and reports true.
func (m *Machine) rewind(live []Reg, vals []*tensor.Tensor, from tapeMark) bool {
	n := 0
	for _, r := range live {
		if v := vals[r]; v != nil {
			n += v.Size() * v.DType().Size()
		}
	}
	if m.Tape.handed-m.since < carryRatio*n {
		return false
	}
	carry := &m.carry[m.carried]
	carry.Reset()
	for _, r := range live {
		if v := vals[r]; v != nil {
			carry.SetDType(v.DType())
			c := carry.NewTensor(v.Shape...)
			c.CopyFrom(v)
			vals[r] = c
		}
	}
	m.carried ^= 1
	m.Tape.rewind(from)
	m.since = m.Tape.handed
	return true
}

// carries returns, for each op that ends a weight group, the registers
// live across that boundary (Op.Regs): read by a later op, and written by
// an op up to it or by none (the caller binds those). It is worked out on
// first use.
func (pr *Program) carries() [][]Reg {
	pr.carryOnce.Do(func() {
		written, last := make([]int, pr.NumRegs), make([]int, pr.NumRegs)
		for r := range last {
			written[r], last[r] = -1, -1
		}
		for i, op := range pr.Ops {
			in, out := op.Regs()
			for _, r := range in {
				last[r] = i
			}
			if out >= 0 && written[out] < 0 {
				written[out] = i
			}
		}
		carries := make([][]Reg, len(pr.Ops))
		for i := 0; i+1 < len(pr.Ops); i++ {
			if pr.GroupOf[i+1] == pr.GroupOf[i] {
				continue
			}
			for r := range last {
				if written[r] <= i && last[r] > i {
					carries[i] = append(carries[i], Reg(r))
				}
			}
		}
		pr.carry = carries
	})
	return pr.carry
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

	// The rewind state Infer and BackwardRange share (rewind):
	// carry[carried] takes the live values at the next rewind, and the
	// other holds those of the last; since is Tape.handed at the pass's
	// start or last rewind.
	carry   [2]Tape
	carried int
	since   int

	// bwd is where this run's backward starts on the tape, marked by its
	// first BackwardRange (inBwd); the backward rewinds down to it.
	bwd   tapeMark
	inBwd bool
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
	m.inBwd = false
	m.Tape.Reset()
}

// ArenaBytes reports the bytes m's arenas hold: its tape's below where
// its last backward started (the forward's activations and scratch), its
// tape's from there on (the backward's temporaries), and its two carry
// arenas'. A machine that has run no backward reports its whole tape as
// the forward's.
func (m *Machine) ArenaBytes() (fwd, bwd, carry int) {
	held := m.Tape.held()
	at := m.bwd
	if at == (tapeMark{}) {
		at = held
	}
	for i := range m.carry {
		carry += m.carry[i].bytes(tapeMark{}, m.carry[i].held())
	}
	return m.Tape.bytes(tapeMark{}, at), m.Tape.bytes(at, held), carry
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

// Regs reads In and writes Out.
func (o *ApplyOp) Regs() ([]Reg, Reg) { return []Reg{o.In}, o.Out }

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

// Regs reads A and B and writes Out.
func (o *AddOp) Regs() ([]Reg, Reg) { return []Reg{o.A, o.B}, o.Out }

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

// Regs reads Q, K and V and writes Out.
func (o *AttnCoreOp) Regs() ([]Reg, Reg) { return []Reg{o.Q, o.K, o.V}, o.Out }

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

// Regs reads Logits and writes no register: the loss is Machine.Loss.
func (o *LossOp) Regs() ([]Reg, Reg) { return []Reg{o.Logits}, -1 }
