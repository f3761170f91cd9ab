package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipemare/internal/tensor"
)

// buildChain returns a small program (linear → relu → layernorm → linear →
// loss) plus its input/logit registers and the underlying layers.
func buildChain(rng *rand.Rand) (*Program, Reg, []*Param) {
	l1 := NewLinear("fc1", 6, 10, true, rng)
	ln := NewLayerNorm("ln", 10)
	l2 := NewLinear("fc2", 10, 4, true, rng)
	ce := NewCrossEntropy()
	rIn, rH1, rH2, rH3, rLogits := Reg(0), Reg(1), Reg(2), Reg(3), Reg(4)
	prog := &Program{
		Ops: []Op{
			&ApplyOp{L: l1, In: rIn, Out: rH1},
			&ApplyOp{L: NewReLU(), In: rH1, Out: rH2},
			&ApplyOp{L: ln, In: rH2, Out: rH3},
			&ApplyOp{L: l2, In: rH3, Out: rLogits},
			&LossOp{CE: ce, Logits: rLogits},
		},
		GroupOf: []int{0, 0, 1, 2, 2},
		NumRegs: 5,
	}
	var ps []*Param
	for _, l := range []Layer{l1, ln, l2} {
		ps = append(ps, l.Params()...)
	}
	return prog, rIn, ps
}

func runChain(prog *Program, m *Machine, rIn Reg, x *tensor.Tensor, labels []int) float64 {
	m.ResetRun()
	xm := m.Tape.NewTensor(x.Shape...)
	xm.CopyFrom(x)
	m.SetVal(rIn, xm)
	m.Labels = append(m.Labels[:0], labels...)
	prog.ForwardRange(m, 0, len(prog.Ops))
	prog.BackwardRange(m, 0, len(prog.Ops))
	return m.Loss
}

// TestInterleavedMachinesMatchSerial pins the property the pipelined
// engine relies on: two microbatches executing the same layers through
// separate machines — with their stage segments interleaved — produce
// exactly the loss and gradient accumulation of serial execution.
func TestInterleavedMachinesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prog, rIn, ps := buildChain(rng)
	xA := randTensor(rng, tensor.Float64, 3, 6)
	xB := randTensor(rng, tensor.Float64, 3, 6)
	lbA, lbB := []int{0, 2, 1}, []int{3, 1, 0}

	// Serial: microbatch A fully, then B.
	ZeroGrads(ps)
	mA, mB := NewMachine(prog.NumRegs), NewMachine(prog.NumRegs)
	lossA := runChain(prog, mA, rIn, xA, lbA)
	lossB := runChain(prog, mB, rIn, xB, lbB)
	serialGrads := make([][]float64, len(ps))
	for i, p := range ps {
		serialGrads[i] = append([]float64(nil), tensor.F64(p.Grad)...)
	}

	// Interleaved: A and B alternate per-op "stages" on fresh machines,
	// with per-stage order A-before-B — the pipeline's per-stage
	// microbatch order.
	ZeroGrads(ps)
	bind := func(m *Machine, x *tensor.Tensor, lb []int) {
		m.ResetRun()
		xm := m.Tape.NewTensor(x.Shape...)
		xm.CopyFrom(x)
		m.SetVal(rIn, xm)
		m.Labels = append(m.Labels[:0], lb...)
	}
	mA2, mB2 := NewMachine(prog.NumRegs), NewMachine(prog.NumRegs)
	bind(mA2, xA, lbA)
	bind(mB2, xB, lbB)
	n := len(prog.Ops)
	for op := 0; op < n; op++ {
		prog.ForwardRange(mA2, op, op+1)
		if op > 0 {
			prog.ForwardRange(mB2, op-1, op)
		}
	}
	prog.ForwardRange(mB2, n-1, n)
	for op := n - 1; op >= 0; op-- {
		prog.BackwardRange(mA2, op, op+1)
		if op < n-1 {
			prog.BackwardRange(mB2, op+1, op+2)
		}
	}
	prog.BackwardRange(mB2, 0, 1)

	if mA2.Loss != lossA || mB2.Loss != lossB {
		t.Fatalf("interleaved losses (%v, %v) != serial (%v, %v)", mA2.Loss, mB2.Loss, lossA, lossB)
	}
	for i, p := range ps {
		for j, g := range tensor.F64(p.Grad) {
			if g != serialGrads[i][j] {
				t.Fatalf("param %s grad[%d] differs interleaved vs serial", p.Name, j)
			}
		}
	}
}

// TestMachineRerunIsBitIdentical pins machine reuse (the engine's machine
// pool): resetting and re-running the same microbatch must reproduce the
// loss exactly, and the tape arena must serve the rerun from recycled
// buffers.
func TestMachineRerunIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prog, rIn, ps := buildChain(rng)
	x := randTensor(rng, tensor.Float64, 4, 6)
	lb := []int{1, 0, 3, 2}
	m := NewMachine(prog.NumRegs)
	ZeroGrads(ps)
	loss1 := runChain(prog, m, rIn, x, lb)
	probe := m.Tape.NewTensor(2, 2) // position of the arena after run 1
	ZeroGrads(ps)
	loss2 := runChain(prog, m, rIn, x, lb)
	probe2 := m.Tape.NewTensor(2, 2)
	if loss1 != loss2 {
		t.Fatalf("rerun loss %v != %v", loss2, loss1)
	}
	if probe2 != probe {
		t.Fatal("tape arena did not recycle buffers across ResetRun")
	}
}

// TestStageRanges pins the op-range computation for a 3-stage split of the
// chain program, and the group-order validation.
func TestStageRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog, _, _ := buildChain(rng)
	// Groups {0,1,2} onto 3 stages: ops [0,2), [2,3), [3,5).
	lo, hi, err := prog.StageRanges([]int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range [][2]int{{0, 2}, {2, 3}, {3, 5}} {
		if lo[s] != want[0] || hi[s] != want[1] {
			t.Fatalf("stage %d range [%d,%d), want [%d,%d)", s, lo[s], hi[s], want[0], want[1])
		}
	}
	// Regressing group order must be rejected.
	bad := &Program{Ops: prog.Ops, GroupOf: []int{0, 1, 0, 2, 2}, NumRegs: prog.NumRegs}
	if _, _, err := bad.StageRanges([]int{0, 1, 2}, 3); err == nil {
		t.Fatal("StageRanges accepted a regressing group order")
	}
}

// TestGroupCostsAnalytic pins the analytic cost model's shape: op costs
// accumulate onto the op's group, projection-dominated groups dwarf glue,
// and wider layers cost more than narrow ones.
func TestGroupCostsAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog, _, _ := buildChain(rng)
	costs := prog.GroupCosts(3)
	if len(costs) != 3 {
		t.Fatalf("got %d group costs, want 3", len(costs))
	}
	w := make([]float64, 3)
	for i, c := range costs {
		w[i] = c.Weight()
		if c.FLOPs <= 0 || c.Bytes <= 0 {
			t.Fatalf("group %d cost %+v not positive", i, c)
		}
	}
	// Group 0 (6×10 linear + relu glue) must out-cost group 1 (layernorm
	// over 10) and group 2 (10×4 linear + loss glue) — matmuls dominate.
	if w[0] <= w[1] {
		t.Fatalf("linear group %g not costlier than layernorm group %g", w[0], w[1])
	}
	if w[0] <= w[2] {
		t.Fatalf("6×10 linear group %g not costlier than 10×4 group %g", w[0], w[2])
	}
	// The attention core's cost grows with its key length and width.
	small := NewAttnCore(8, 2, 4, 4, false).EstimateCost()
	large := NewAttnCore(16, 2, 4, 16, false).EstimateCost()
	if large.Weight() <= small.Weight() {
		t.Fatalf("attn core cost %g not above smaller core %g", large.Weight(), small.Weight())
	}
}

// TestMeasureGroupCosts pins the profiling pass: every group accrues
// positive wall time, and the pass is a real forward+backward (gradients
// accumulate, the loss is computed).
func TestMeasureGroupCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog, rIn, ps := buildChain(rng)
	m := NewMachine(prog.NumRegs)
	x := randTensor(rng, tensor.Float64, 3, 6)
	m.ResetRun()
	xm := m.Tape.NewTensor(x.Shape...)
	xm.CopyFrom(x)
	m.SetVal(rIn, xm)
	m.Labels = append(m.Labels[:0], 1, 0, 3)
	costs := make([]float64, 3)
	prog.MeasureGroupCosts(m, costs)
	for g, c := range costs {
		if c <= 0 {
			t.Fatalf("group %d measured cost %g, want > 0", g, c)
		}
	}
	if m.Loss == 0 {
		t.Fatal("profiling pass did not compute a loss")
	}
	nonZero := false
	for _, p := range ps {
		for _, g := range tensor.F64(p.Grad) {
			if g != 0 {
				nonZero = true
			}
		}
	}
	if !nonZero {
		t.Fatal("profiling pass did not accumulate gradients")
	}
}

// arenaBytes returns the bytes of the tensors a tape's arena holds.
func arenaBytes(t *Tape) int {
	n := 0
	for _, x := range t.tens {
		n += x.Size() * x.DType().Size()
	}
	return n
}

// TestInferMatchesForwardRange pins Infer to ForwardRange's values, bit
// for bit, in both dtypes, on a program deep enough that Infer rewinds
// its tape several times: a residual stack of LN · ReLU · Linear blocks
// (one weight group each) whose head adds the first block's output back
// in, so one register is carried across every rewind. The input is wider
// than the blocks, so a rewound tape's first position re-views a larger
// buffer. Infer's arenas stay at most a quarter of ForwardRange's, and a warm
// Infer allocates nothing.
func TestInferMatchesForwardRange(t *testing.T) {
	const rows, in, width, blocks = 64, 96, 64, 24
	rng := rand.New(rand.NewSource(5))
	prog := &Program{}
	op := func(g int, o Op) {
		prog.Ops = append(prog.Ops, o)
		prog.GroupOf = append(prog.GroupOf, g)
	}
	reg := func() Reg { prog.NumRegs++; return Reg(prog.NumRegs - 1) }
	rIn, x := reg(), reg()
	op(0, &ApplyOp{L: NewLinear("stem", in, width, true, rng), In: rIn, Out: x})
	first := x
	for b := 0; b < blocks; b++ {
		h1, h2, f, y := reg(), reg(), reg(), reg()
		op(b+1, &ApplyOp{L: NewLayerNorm("ln", width), In: x, Out: h1})
		op(b+1, &ApplyOp{L: NewReLU(), In: h1, Out: h2})
		op(b+1, &ApplyOp{L: NewLinear("fc", width, width, true, rng), In: h2, Out: f})
		op(b+1, &AddOp{A: x, B: f, Out: y})
		x = y
	}
	skip, logits := reg(), reg()
	op(blocks+1, &AddOp{A: x, B: first, Out: skip})
	op(blocks+1, &ApplyOp{L: NewLinear("head", width, 10, true, rng), In: skip, Out: logits})
	op(blocks+1, &LossOp{CE: NewCrossEntropy(), Logits: logits})
	var params []*Param
	for _, o := range prog.Ops {
		if a, ok := o.(*ApplyOp); ok {
			params = append(params, a.L.Params()...)
		}
	}
	input := randTensor(rng, tensor.Float64, rows, in)
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		for _, p := range params {
			p.CastTo(dt)
		}
		input := input.Clone()
		input.CastTo(dt)
		run := func(m *Machine, infer bool) *tensor.Tensor {
			m.ResetRun()
			x := m.Tape.NewTensor(rows, in)
			x.CopyFrom(input)
			m.SetVal(rIn, x)
			end := len(prog.Ops) - 1 // stop before the loss, as an evaluation does
			if infer {
				prog.Infer(m, 0, end)
			} else {
				prog.ForwardRange(m, 0, end)
			}
			return m.Val(logits)
		}
		full, lean := NewMachine(prog.NumRegs), NewMachine(prog.NumRegs)
		full.Tape.SetDType(dt)
		lean.Tape.SetDType(dt)
		want := run(full, false)
		for pass := 0; pass < 2; pass++ {
			got := run(lean, true)
			for i := 0; i < want.Size(); i++ {
				if math.Float64bits(got.FlatAt(i)) != math.Float64bits(want.FlatAt(i)) {
					t.Fatalf("%s pass %d: logit %d = %v under Infer, %v under ForwardRange", dt, pass, i, got.FlatAt(i), want.FlatAt(i))
				}
			}
		}
		fullBytes, leanBytes := arenaBytes(&full.Tape), arenaBytes(&lean.Tape)+arenaBytes(&lean.carry[0])+arenaBytes(&lean.carry[1])
		if leanBytes > fullBytes/4 {
			t.Fatalf("%s: Infer's arenas hold %d bytes, ForwardRange's %d: want a range of several windows, at most a quarter", dt, leanBytes, fullBytes)
		}
		// The race detector's sync.Pool drops Puts, so the panel pool allocates.
		if allocs := testing.AllocsPerRun(3, func() { run(lean, true) }); allocs != 0 && !raceEnabled {
			t.Fatalf("%s: a warm Infer allocates %v times", dt, allocs)
		}
	}
}

// residualWithMemory builds the program the backward-rewind tests train:
// a stem (group 0), a memory projection of its output (group 1) that every
// block reads — the encoder-memory pattern, whose gradient accumulates
// across every block's group — then blocks LN · ReLU · Linear (one group
// each) that add the block's output and a projection of the memory to the
// residual stream, and a head (the last group) that adds the first block's
// output back in before its Linear and the loss. So at every boundary of
// the backward the residual stream's, the memory's and the skip's
// gradients are live.
func residualWithMemory(rng *rand.Rand, in, width, blocks int) (prog *Program, rIn Reg, params []*Param) {
	prog = &Program{}
	op := func(g int, o Op) {
		prog.Ops = append(prog.Ops, o)
		prog.GroupOf = append(prog.GroupOf, g)
	}
	reg := func() Reg { prog.NumRegs++; return Reg(prog.NumRegs - 1) }
	rIn, x, mem := reg(), reg(), reg()
	op(0, &ApplyOp{L: NewLinear("stem", in, width, true, rng), In: rIn, Out: x})
	op(1, &ApplyOp{L: NewLinear("mem", width, width, false, rng), In: x, Out: mem})
	var first Reg
	for b := 0; b < blocks; b++ {
		h1, h2, f, k, y, z := reg(), reg(), reg(), reg(), reg(), reg()
		g := b + 2
		op(g, &ApplyOp{L: NewLayerNorm("ln", width), In: x, Out: h1})
		op(g, &ApplyOp{L: NewReLU(), In: h1, Out: h2})
		op(g, &ApplyOp{L: NewLinear("fc", width, width, true, rng), In: h2, Out: f})
		op(g, &ApplyOp{L: NewLinear("kv", width, width, false, rng), In: mem, Out: k})
		op(g, &AddOp{A: x, B: f, Out: y})
		op(g, &AddOp{A: y, B: k, Out: z})
		if b == 0 {
			first = z
		}
		x = z
	}
	skip, logits := reg(), reg()
	head := blocks + 2
	op(head, &AddOp{A: x, B: first, Out: skip})
	op(head, &ApplyOp{L: NewLinear("head", width, 10, true, rng), In: skip, Out: logits})
	op(head, &LossOp{CE: NewCrossEntropy(), Logits: logits})
	for _, o := range prog.Ops {
		if a, ok := o.(*ApplyOp); ok {
			params = append(params, a.L.Params()...)
		}
	}
	return prog, rIn, params
}

// trainRun resets m, binds input and labels, and runs the program forward
// and then backward: one BackwardRange per weight group, from the last,
// as a pipeline of one stage per group runs it; or, when plain, every
// op's Backward in reverse with no rewind. It returns the input gradient
// and the bytes the backward's part of the tape holds.
func trainRun(prog *Program, m *Machine, rIn Reg, input *tensor.Tensor, labels []int, plain bool) (*tensor.Tensor, int) {
	m.ResetRun()
	x := m.Tape.NewTensor(input.Shape...)
	x.CopyFrom(input)
	m.SetVal(rIn, x)
	m.Labels = append(m.Labels[:0], labels...)
	prog.ForwardRange(m, 0, len(prog.Ops))
	if plain {
		at := m.Tape.mark()
		for i := len(prog.Ops) - 1; i >= 0; i-- {
			prog.Ops[i].Backward(m)
		}
		return m.grads[rIn], m.Tape.bytes(at, m.Tape.held())
	}
	hi := len(prog.Ops)
	for lo := hi - 1; lo >= 0; lo-- {
		if lo == 0 || prog.GroupOf[lo-1] != prog.GroupOf[lo] {
			prog.BackwardRange(m, lo, hi)
			hi = lo
		}
	}
	_, bwd, carry := m.ArenaBytes()
	return m.grads[rIn], bwd + carry
}

// TestBackwardRewindMatchesUnrewound pins BackwardRange's rewinds to a
// backward without them, bit for bit, in both dtypes: the input gradient
// and every parameter gradient, on a cold and on a warm machine, of the
// residualWithMemory program over 27 groups. The rewinding backward's
// tape and carry arenas hold at most a third of the plain one's. Under
// the race detector every recycled arena tensor is NaN-filled, so a
// gradient the rewind failed to carry fails here.
func TestBackwardRewindMatchesUnrewound(t *testing.T) {
	const rows, in, width, blocks = 16, 24, 32, 25
	rng := rand.New(rand.NewSource(7))
	prog, rIn, params := residualWithMemory(rng, in, width, blocks)
	input := randTensor(rng, tensor.Float64, rows, in)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	grads := func() []*tensor.Tensor {
		var out []*tensor.Tensor
		for _, p := range params {
			out = append(out, p.Grad.Clone())
		}
		return out
	}
	same := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		for i := 0; i < want.Size(); i++ {
			if math.Float64bits(got.FlatAt(i)) != math.Float64bits(want.FlatAt(i)) {
				t.Fatalf("%s element %d = %v with rewinds, %v without", what, i, got.FlatAt(i), want.FlatAt(i))
			}
		}
	}
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		for _, p := range params {
			p.CastTo(dt)
		}
		input := input.Clone()
		input.CastTo(dt)
		full, lean := NewMachine(prog.NumRegs), NewMachine(prog.NumRegs)
		full.Tape.SetDType(dt)
		lean.Tape.SetDType(dt)
		ZeroGrads(params)
		dxWant, fullBytes := trainRun(prog, full, rIn, input, labels, true)
		want := grads()
		for pass := 0; pass < 2; pass++ {
			ZeroGrads(params)
			dx, leanBytes := trainRun(prog, lean, rIn, input, labels, false)
			same(fmt.Sprintf("%s pass %d: input gradient", dt, pass), dx, dxWant)
			for i, g := range grads() {
				same(fmt.Sprintf("%s pass %d: %s gradient", dt, pass, params[i]), g, want[i])
			}
			if leanBytes > fullBytes/3 {
				t.Fatalf("%s pass %d: the rewinding backward holds %d bytes, the plain one %d: want at most a third", dt, pass, leanBytes, fullBytes)
			}
		}
	}
}

// TestWarmBackwardAllocatesNothing pins that a rewinding backward reuses
// its arenas: once a machine has trained the residualWithMemory program,
// a forward and backward over it allocate nothing.
func TestWarmBackwardAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const rows, in, width, blocks = 16, 24, 32, 25
	rng := rand.New(rand.NewSource(7))
	prog, rIn, params := residualWithMemory(rng, in, width, blocks)
	labels := make([]int, rows)
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		for _, p := range params {
			p.CastTo(dt)
		}
		input := randTensor(rng, dt, rows, in)
		m := NewMachine(prog.NumRegs)
		m.Tape.SetDType(dt)
		trainRun(prog, m, rIn, input, labels, false)
		if allocs := testing.AllocsPerRun(3, func() { trainRun(prog, m, rIn, input, labels, false) }); allocs != 0 {
			t.Fatalf("%s: a warm forward and backward allocate %v times", dt, allocs)
		}
	}
}
