package nn

import (
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
