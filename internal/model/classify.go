// Package model builds the networks and tasks of the PipeMare evaluation:
// a deep residual MLP and a convolutional ResNet for the image
// classification substitutes, and an encoder–decoder Transformer for the
// translation substitute (see DESIGN.md §1 for the substitution table).
//
// Every task compiles its network to an nn.Program whose ops are aligned
// with the task's weight groups, so the trainer executes it as per-stage
// segments (core.Task) and the concurrent engine keeps several
// microbatches in flight across pipeline stages at once.
package model

import (
	"fmt"
	"math/rand"

	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/nn"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// Classification is a core.Task for image classification over a network
// whose outputs are class logits.
type Classification struct {
	CE     *nn.CrossEntropy
	groups []pipeline.ParamGroup
	prog   *nn.Program

	rIn     nn.Reg
	rLogits nn.Reg
	lossAt  int // op index of the loss op

	evalMs      []*nn.Machine // one per eval goroutine, built by EvalTest
	evalCorrect []int         // per eval goroutine: its rows classified right
	evalChunk   func(g, lo, hi int)

	trainX, testX *tensor.Tensor // (N, D) or (N, C, H, W) features
	trainY, testY []int

	clone func() *Classification // rebuild for data-parallel replication

	dt tensor.DType
}

func newClassification(b *progBuilder, rIn, rLogits nn.Reg, ce *nn.CrossEntropy, d *data.Images, flat bool) *Classification {
	c := &Classification{
		CE: ce, groups: b.groups, prog: b.build(),
		rIn: rIn, rLogits: rLogits, lossAt: len(b.ops) - 1,
		trainY: d.TrainY, testY: d.TestY,
	}
	if flat {
		c.trainX, c.testX = d.FlatTrain(), d.FlatTest()
	} else {
		c.trainX, c.testX = d.TrainX, d.TestX
	}
	return c
}

// NewResNetMLP builds a deep pre-activation residual MLP classifier:
//
//	Linear(in→width) · [x + Linear(ReLU(LN(x)))]×blocks · LN · Linear(width→classes)
//
// One weight group per layer (weight+bias fused), so the maximum stage
// count is 2·blocks + 3 — analogous to the paper's "one stage per model
// weight" ResNet50 regime.
func NewResNetMLP(d *data.Images, width, blocks int, seed int64) *Classification {
	rng := rand.New(rand.NewSource(seed))
	in := d.C * d.H * d.W
	b := &progBuilder{}
	rIn := b.reg()

	stem := nn.NewLinear("stem", in, width, true, rng)
	x := b.apply(b.group("stem", stem.Params()), stem, rIn)
	for blk := 0; blk < blocks; blk++ {
		ln := nn.NewLayerNorm(fmt.Sprintf("blk%d.ln", blk), width)
		fc := nn.NewLinear(fmt.Sprintf("blk%d.fc", blk), width, width, true, rng)
		gLn := b.group(fmt.Sprintf("blk%d.ln", blk), ln.Params())
		gFc := b.group(fmt.Sprintf("blk%d.fc", blk), fc.Params())
		h := b.apply(gLn, ln, x)
		h = b.apply(gLn, nn.NewReLU(), h)
		f := b.apply(gFc, fc, h)
		x = b.add(gFc, x, f)
	}
	hn := nn.NewLayerNorm("head.ln", width)
	head := nn.NewLinear("head.fc", width, d.Classes, true, rng)
	x = b.apply(b.group("head.ln", hn.Params()), hn, x)
	gHead := b.group("head.fc", head.Params())
	logits := b.apply(gHead, head, x)
	ce := nn.NewCrossEntropy()
	b.loss(gHead, ce, logits)

	c := newClassification(b, rIn, logits, ce, d, true)
	c.clone = func() *Classification { return NewResNetMLP(d, width, blocks, seed) }
	return c
}

// NewConvNet builds a small convolutional residual classifier over
// (C, H, W) images:
//
//	Conv(C→ch) · GN · ReLU · [x + Conv(ReLU(GN(x)))]×blocks · GAP · Linear
func NewConvNet(d *data.Images, channels, blocks, groupsPerNorm int, seed int64) *Classification {
	rng := rand.New(rand.NewSource(seed))
	b := &progBuilder{}
	rIn := b.reg()

	stem := nn.NewConv2d("stem", d.C, channels, 3, 1, 1, true, rng)
	gn0 := nn.NewGroupNorm("stem.gn", channels, groupsPerNorm)
	x := b.apply(b.group("stem", stem.Params()), stem, rIn)
	gGn0 := b.group("stem.gn", gn0.Params())
	x = b.apply(gGn0, gn0, x)
	x = b.apply(gGn0, nn.NewReLU(), x)
	for blk := 0; blk < blocks; blk++ {
		gn := nn.NewGroupNorm(fmt.Sprintf("blk%d.gn", blk), channels, groupsPerNorm)
		cv := nn.NewConv2d(fmt.Sprintf("blk%d.conv", blk), channels, channels, 3, 1, 1, true, rng)
		gGn := b.group(fmt.Sprintf("blk%d.gn", blk), gn.Params())
		gCv := b.group(fmt.Sprintf("blk%d.conv", blk), cv.Params())
		h := b.apply(gGn, gn, x)
		h = b.apply(gGn, nn.NewReLU(), h)
		f := b.apply(gCv, cv, h)
		x = b.add(gCv, x, f)
	}
	head := nn.NewLinear("head", channels, d.Classes, true, rng)
	gHead := b.group("head", head.Params())
	x = b.apply(gHead, nn.NewGlobalAvgPool(), x)
	logits := b.apply(gHead, head, x)
	ce := nn.NewCrossEntropy()
	b.loss(gHead, ce, logits)

	c := newClassification(b, rIn, logits, ce, d, false)
	c.clone = func() *Classification { return NewConvNet(d, channels, blocks, groupsPerNorm, seed) }
	return c
}

// Groups returns the model's weight groups in forward order.
func (c *Classification) Groups() []pipeline.ParamGroup { return c.groups }

// CloneTask rebuilds an architecturally identical task over the same
// dataset (core.Replicable, for WithReplicas data parallelism). The
// clone re-applies the dtype so every replica rounds the same float64
// initialization identically.
func (c *Classification) CloneTask() core.Task {
	nc := c.clone()
	if c.dt != tensor.Float64 {
		nc.SetDType(c.dt)
	}
	return nc
}

// SetDType casts the model to dt. Parameters become the rounded image of
// their float64 initialization (the rng draw sequence is unchanged), and
// all tape-allocated activations follow. Call before training starts —
// the optimizer sizes its moments off the parameter dtype.
func (c *Classification) SetDType(dt tensor.DType) {
	c.dt = dt
	setProgDType(dt, c.groups, c.prog, c.evalMs...)
}

// Program returns the compiled op program (core.Task).
func (c *Classification) Program() *nn.Program { return c.prog }

// BindMicro loads the indexed samples and labels into a machine
// (core.Task). The machine must have been reset.
func (c *Classification) BindMicro(m *nn.Machine, idx []int) {
	m.SetVal(c.rIn, gatherRowsTape(&m.Tape, c.trainX, idx))
	m.Labels = m.Labels[:0]
	for _, ix := range idx {
		m.Labels = append(m.Labels, c.trainY[ix])
	}
}

// NumTrain returns the training-set size.
func (c *Classification) NumTrain() int { return len(c.trainY) }

// EvalTest returns test accuracy in percent. The test rows split over
// evalWorkers goroutines, each running the forward section on its own
// machine (forEvalChunks) with no backward tape (nn.Program.Infer); the
// correct counts add up in share order. Once its machines are sized, an
// evaluation on one goroutine allocates nothing.
func (c *Classification) EvalTest() float64 {
	n := len(c.testY)
	w := evalWorkers(n)
	for len(c.evalMs) < w {
		m := nn.NewMachine(c.prog.NumRegs)
		m.Tape.SetDType(c.dt)
		c.evalMs = append(c.evalMs, m)
		c.evalCorrect = append(c.evalCorrect, 0)
	}
	if c.evalChunk == nil {
		c.evalChunk = c.classify
	}
	clear(c.evalCorrect)
	forEvalChunks(n, w, 256, c.evalChunk)
	total := 0
	for _, k := range c.evalCorrect[:w] {
		total += k
	}
	return 100 * float64(total) / float64(n)
}

// classify counts the test rows [lo, hi) eval machine g classifies right.
func (c *Classification) classify(g, lo, hi int) {
	m := c.evalMs[g]
	m.ResetRun()
	evalRows(m, c.rIn, c.testX, lo, hi)
	c.prog.Infer(m, 0, c.lossAt)
	logits := m.Val(c.rLogits)
	for i := range hi - lo {
		if logits.ArgMaxRow(i) == c.testY[lo+i] {
			c.evalCorrect[g]++
		}
	}
}
