package model

import (
	"math"
	"testing"

	"pipemare/internal/data"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

func smallImages() *data.Images {
	return data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 128, Test: 64, Noise: 0.4, Seed: 1})
}

func smallTranslation() *data.Translation {
	return data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5, Train: 256, Test: 48, Seed: 2})
}

func learnableTranslation() *data.Translation {
	return data.NewTranslation(data.TranslationConfig{Vocab: 13, SrcLen: 6, Train: 1024, Test: 64, Seed: 2})
}

// pass drives a task's program over one machine the way a two-stage
// pipeline's slots do: forward over the two op ranges in order, backward
// over them in reverse, the boundary activations crossing in the
// machine's registers.
type pass struct {
	task programTask
	m    *nn.Machine
}

type programTask interface {
	Program() *nn.Program
	BindMicro(m *nn.Machine, idx []int)
}

func passOver(task programTask) pass { return pass{task, nn.NewMachine(task.Program().NumRegs)} }

func (p pass) forward(idx []int) float64 {
	prog := p.task.Program()
	n := len(prog.Ops)
	p.m.ResetRun()
	p.task.BindMicro(p.m, idx)
	prog.ForwardRange(p.m, 0, n/2)
	prog.ForwardRange(p.m, n/2, n)
	return p.m.Loss
}

func (p pass) backward() {
	prog := p.task.Program()
	n := len(prog.Ops)
	prog.BackwardRange(p.m, n/2, n)
	prog.BackwardRange(p.m, 0, n/2)
}

func TestResNetMLPGroupCount(t *testing.T) {
	c := NewResNetMLP(smallImages(), 12, 5, 3)
	// stem + 2 per block + head.ln + head.fc.
	want := 1 + 2*5 + 2
	if got := len(c.Groups()); got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}
	// Every group non-empty and named.
	for _, g := range c.Groups() {
		if len(g.Params) == 0 || g.Name == "" {
			t.Fatalf("bad group %+v", g)
		}
		if n := nn.TotalSize(g.Params); n <= 0 {
			t.Fatalf("group %s has size %d", g.Name, n)
		}
	}
}

func TestConvNetGroupCount(t *testing.T) {
	c := NewConvNet(smallImages(), 4, 3, 2, 4)
	want := 2 + 2*3 + 1
	if got := len(c.Groups()); got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}
}

func TestClassificationForwardBackwardShapes(t *testing.T) {
	c := NewResNetMLP(smallImages(), 12, 3, 4)
	run := passOver(c)
	loss := run.forward([]int{0, 1, 2, 3})
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("initial loss = %g", loss)
	}
	// Initial loss should be near ln(4) for 4 balanced classes.
	if loss > 3 {
		t.Fatalf("initial loss %g implausibly high", loss)
	}
	run.backward()
	var ps []*nn.Param
	for _, g := range c.Groups() {
		ps = append(ps, g.Params...)
	}
	if nn.GradNorm(ps) == 0 {
		t.Fatal("backward produced zero gradients")
	}
}

func TestResNetMLPTrainsSynchronously(t *testing.T) {
	d := smallImages()
	c := NewResNetMLP(d, 16, 4, 5)
	var ps []*nn.Param
	for _, g := range c.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 0)
	run := passOver(c)
	for epoch := 0; epoch < 15; epoch++ {
		for _, b := range data.Batches(c.NumTrain(), 32, nil) {
			run.forward(b)
			run.backward()
			opt.Step(optim.UniformLR(0.05, len(ps)))
			nn.ZeroGrads(ps)
		}
	}
	if acc := c.EvalTest(); acc < 80 {
		t.Fatalf("plain training reached only %.1f%% accuracy", acc)
	}
}

func TestConvNetTrainsSynchronously(t *testing.T) {
	d := smallImages()
	c := NewConvNet(d, 6, 2, 2, 6)
	var ps []*nn.Param
	for _, g := range c.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 0)
	run := passOver(c)
	for epoch := 0; epoch < 10; epoch++ {
		for _, b := range data.Batches(c.NumTrain(), 32, nil) {
			run.forward(b)
			run.backward()
			opt.Step(optim.UniformLR(0.05, len(ps)))
			nn.ZeroGrads(ps)
		}
	}
	if acc := c.EvalTest(); acc < 70 {
		t.Fatalf("conv training reached only %.1f%% accuracy", acc)
	}
}

func TestTranslationGroupsAndInitialLoss(t *testing.T) {
	ds := smallTranslation()
	tr := NewTranslation(ds, TransformerConfig{Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 3})
	// src emb/pos + enc(8) + tgt emb/pos + dec(13) + out ln/proj.
	want := 2 + 8 + 2 + 13 + 2
	if got := len(tr.Groups()); got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}
	run := passOver(tr)
	loss := run.forward([]int{0, 1, 2, 3})
	// Initial loss ≈ ln(V) = ln(11) ≈ 2.4.
	if loss < 1 || loss > 4 {
		t.Fatalf("initial translation loss = %g, want ≈ ln(11)", loss)
	}
	run.backward()
	var ps []*nn.Param
	for _, g := range tr.Groups() {
		ps = append(ps, g.Params...)
	}
	if nn.GradNorm(ps) == 0 {
		t.Fatal("translation backward produced zero gradients")
	}
}

func TestTranslationNumericalGradient(t *testing.T) {
	// Full end-to-end gradient check through encoder, cross-attention and
	// decoder on a handful of parameters.
	ds := smallTranslation()
	tr := NewTranslation(ds, TransformerConfig{Dim: 8, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	idx := []int{0, 1}
	var ps []*nn.Param
	for _, g := range tr.Groups() {
		ps = append(ps, g.Params...)
	}
	run := passOver(tr)
	run.forward(idx)
	run.backward()
	const eps = 1e-5
	// Probe params spread across the network: src emb, an encoder FF, a
	// cross-attention projection, the output projection.
	probes := []int{0, 8, len(ps) / 2, len(ps) - 2}
	for _, pi := range probes {
		p := ps[pi]
		for _, j := range []int{0, p.Size() / 2} {
			orig := p.Data.FlatAt(j)
			p.Data.SetFlat(j, orig+eps)
			lp := run.forward(idx)
			p.Data.SetFlat(j, orig-eps)
			lm := run.forward(idx)
			p.Data.SetFlat(j, orig)
			num := (lp - lm) / (2 * eps)
			if got := p.Grad.FlatAt(j); math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: grad %g, numeric %g", p.Name, j, got, num)
			}
		}
	}
}

func TestTranslationLearnsAndBLEUImproves(t *testing.T) {
	ds := learnableTranslation()
	tr := NewTranslation(ds, TransformerConfig{Dim: 32, Heads: 2, EncLayers: 2, DecLayers: 2, Seed: 5})
	var ps []*nn.Param
	for _, g := range tr.Groups() {
		ps = append(ps, g.Params...)
	}
	before := tr.EvalTest()
	opt := optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 0)
	sched := optim.WarmupInvSqrt{Peak: 5e-3, Init: 1e-6, Warmup: 50}
	step := 0
	var loss float64
	run := passOver(tr)
	for epoch := 0; epoch < 25; epoch++ {
		for _, b := range data.Batches(tr.NumTrain(), 64, nil) {
			loss = run.forward(b)
			run.backward()
			nn.ClipGradNorm(ps, 5)
			opt.Step(optim.UniformLR(sched.LR(step), len(ps)))
			nn.ZeroGrads(ps)
			step++
		}
	}
	after := tr.EvalTest()
	if after <= before+5 {
		t.Fatalf("BLEU did not improve: before %.1f, after %.1f (loss %.3f)", before, after, loss)
	}
	if after < 15 {
		t.Fatalf("BLEU after training = %.1f, task should be learnable", after)
	}
}

func TestTrimEOS(t *testing.T) {
	if got := trimEOS([]int{5, 6, data.EOS, 7}); len(got) != 2 {
		t.Fatalf("trimEOS = %v", got)
	}
	if got := trimEOS([]int{5, 6}); len(got) != 2 {
		t.Fatalf("trimEOS without EOS = %v", got)
	}
}

func TestGatherRows(t *testing.T) {
	src := smallImages().FlatTrain()
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		var tape nn.Tape
		tape.SetDType(dt)
		x := gatherRowsTape(&tape, src, []int{3, 0})
		if x.DType() != dt || x.Shape[0] != 2 || x.Shape[1] != 16 {
			t.Fatalf("%s gather: dtype %s, shape %v", dt, x.DType(), x.Shape)
		}
		for j := 0; j < 16; j++ {
			// A float32 tape rounds each gathered element once.
			want0, want1 := src.FlatAt(3*16+j), src.FlatAt(j)
			if dt == tensor.Float32 {
				want0, want1 = float64(float32(want0)), float64(float32(want1))
			}
			if x.FlatAt(j) != want0 || x.FlatAt(16+j) != want1 {
				t.Fatalf("%s gather row mismatch at column %d", dt, j)
			}
		}
	}
}

// TestModelGroupCostsDriveBalancedPartitions pins the cost model at the
// model level: the compiled programs yield per-group analytic costs whose
// bottleneck-balanced partition is no worse — and on the transformer's
// skewed groups strictly better — than the even-by-count split.
func TestModelGroupCostsDriveBalancedPartitions(t *testing.T) {
	tr := NewTranslation(smallTranslation(), TransformerConfig{
		Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	groups := tr.Groups()
	cs := tr.Program().GroupCosts(len(groups))
	costs := make([]float64, len(cs))
	for i, c := range cs {
		costs[i] = c.Weight()
		if costs[i] <= 0 {
			t.Fatalf("group %d (%s) has non-positive cost %g", i, groups[i].Name, costs[i])
		}
	}
	// A feed-forward projection group must dwarf a norm group: that skew
	// is what even-by-count splitting cannot see.
	var ffCost, lnCost float64
	for i, g := range groups {
		switch g.Name {
		case "enc0.ff1":
			ffCost = costs[i]
		case "enc0.ln1":
			lnCost = costs[i]
		}
	}
	if ffCost <= 4*lnCost {
		t.Fatalf("ff1 cost %g not ≫ ln1 cost %g", ffCost, lnCost)
	}
	for _, p := range []int{4, 8} {
		even, err := pipeline.PartitionGroups(groups, p)
		if err != nil {
			t.Fatal(err)
		}
		bal, err := pipeline.PartitionGroupsByCost(groups, costs, p)
		if err != nil {
			t.Fatal(err)
		}
		ie := pipeline.Imbalance(even.StageCosts(costs))
		ib := pipeline.Imbalance(bal.StageCosts(costs))
		if ib > ie {
			t.Fatalf("P=%d: balanced imbalance %.3f worse than even %.3f", p, ib, ie)
		}
		if p == 8 && ib >= ie {
			t.Fatalf("P=8: balanced imbalance %.3f not strictly better than even %.3f", ib, ie)
		}
	}

	// Same property on the residual MLP classifier.
	cl := NewResNetMLP(smallImages(), 12, 6, 3)
	cgs := cl.Groups()
	ccs := cl.Program().GroupCosts(len(cgs))
	ccosts := make([]float64, len(ccs))
	for i, c := range ccs {
		ccosts[i] = c.Weight()
	}
	even, err := pipeline.PartitionGroups(cgs, 5)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := pipeline.PartitionGroupsByCost(cgs, ccosts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ib, ie := pipeline.Imbalance(bal.StageCosts(ccosts)), pipeline.Imbalance(even.StageCosts(ccosts)); ib > ie {
		t.Fatalf("MLP P=5: balanced imbalance %.3f worse than even %.3f", ib, ie)
	}
}
