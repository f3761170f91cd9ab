package main

import (
	"context"
	"math"

	"pipemare"
	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/experiments"
	"pipemare/internal/memmodel"
	"pipemare/internal/metrics"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/throughput"
)

// runSpec describes one training run of a workload.
type runSpec struct {
	Method       core.Method
	Stages       int // 0 = one stage per weight group
	UseT1        bool
	UseT2        bool
	WarmupEpochs int // −1 = workload default when UseT3
	UseT3        bool
	Epochs       int // 0 = workload default
	Seed         int64
	Recompute    int // recompute segments, 0 = off
}

// runResult carries a run's curve plus the derived paper metrics.
type runResult struct {
	Run        *metrics.Run
	Stages     int
	N          int
	Throughput float64 // amortized normalized throughput over the full run
	MemRatio   float64 // weight+optimizer memory relative to the synchronous base
	RingCopies float64 // weight copies the trainer's version rings hold, measured
}

// scaleEpochs shrinks a reference epoch budget at quick scale.
func (c *config) scaleEpochs(epochs int) int {
	if c.full {
		return epochs
	}
	e := epochs / 4
	if e < 6 {
		e = 6
	}
	return e
}

// train runs one configuration of the workload through the public
// options API, on the engine, partition, replica count and dtype of the
// command line. Replicas and the engine leave every curve bit-identical;
// the partition moves parameters between stages, and so their delays, and
// each dtype is its own ground truth.
func (c *config) train(w experiments.Workload, spec runSpec) runResult {
	task := w.NewTask(spec.Seed)
	var opt optim.Optimizer
	opts := []pipemare.Option{
		pipemare.WithMethod(spec.Method),
		pipemare.WithStages(spec.Stages),
		pipemare.WithBatchSize(w.BatchSize),
		pipemare.WithMicrobatchSize(w.MicrobatchSize),
		pipemare.WithSeed(spec.Seed),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			opt = w.NewOptimizer(ps)
			return opt
		}),
		pipemare.WithSchedule(w.NewSchedule()),
		pipemare.WithPartition(c.partition),
		pipemare.WithDType(c.dtype),
	}
	if w.ClipNorm > 0 {
		opts = append(opts, pipemare.WithClipNorm(w.ClipNorm))
	}
	if spec.UseT1 {
		opts = append(opts, pipemare.WithT1(w.T1K))
	}
	if spec.UseT2 {
		opts = append(opts, pipemare.WithT2(w.T2D))
	}
	warmup := 0
	if spec.UseT3 {
		warmup = w.WarmupEpochs
		if spec.WarmupEpochs >= 0 {
			warmup = spec.WarmupEpochs
		}
		opts = append(opts, pipemare.WithT3(warmup))
	}
	if spec.Recompute > 0 {
		opts = append(opts, pipemare.WithRecompute(spec.Recompute))
	}
	if c.engine != nil {
		opts = append(opts, pipemare.WithEngine(c.engine))
	}
	if c.replicas > 1 {
		opts = append(opts, pipemare.WithReplicas(c.replicas))
	}
	tr, err := pipemare.New(task, opts...)
	if err != nil {
		panic(err)
	}
	epochs := spec.Epochs
	if epochs == 0 {
		epochs = w.Epochs
	}
	run, err := tr.Run(context.Background(), epochs)
	if err != nil {
		panic(err)
	}

	res := runResult{Run: run, Stages: tr.Stages(), N: tr.Microbatches()}
	warm, main := warmup, 1.0
	if spec.Method == core.GPipe {
		warm, main = 0, throughput.PaperGPipeThroughput
	}
	res.Throughput = metrics.AmortizedThroughput(run.Epochs(), warm, throughput.PaperGPipeThroughput, main)
	// Weight+optimizer memory in units of W, over the synchronous base.
	mem := memmodel.WeightOptimizer(memmodel.Method(spec.Method), opt.StateCopies(), tr.Partition().StageSizes(), res.N, spec.UseT2)
	res.MemRatio = mem / float64(nn.TotalSize(params(task))) / float64(opt.StateCopies())
	ring := 0
	for _, m := range tr.WeightMemory() {
		ring += m.Ring
	}
	res.RingCopies = float64(ring) / float64(nn.TotalSize(params(task)))
	return res
}

// timeTo returns the normalized time for this run to reach target, using
// the throughput model (GPipe at 0.3, async at 1.0, warmup epochs at 0.3).
func (r runResult) timeTo(target float64, method core.Method, warmupEpochs int) float64 {
	e := r.Run.EpochsToTarget(target)
	if method == core.GPipe {
		return metrics.TimeToTarget(e, 0, throughput.PaperGPipeThroughput, throughput.PaperGPipeThroughput)
	}
	return metrics.TimeToTarget(e, warmupEpochs, throughput.PaperGPipeThroughput, 1.0)
}

// paperTarget computes the paper's target metric: best across the given
// runs minus the workload slack.
func paperTarget(w experiments.Workload, results ...runResult) float64 {
	best := 0.0
	for _, r := range results {
		if b := r.Run.Best(); b > best {
			best = b
		}
	}
	return math.Max(best-w.TargetSlack, 0)
}

// params extracts the parameter list of a task in group order.
func params(t core.Task) []*nn.Param {
	var ps []*nn.Param
	for _, g := range t.Groups() {
		ps = append(ps, g.Params...)
	}
	return ps
}

// classifierWithBlocks builds the standard synthetic classification task
// with a residual MLP of the given block count (2·blocks + 3 weight
// groups), used by the deeper-model experiments (Figures 4, 7, 11 and 19).
func classifierWithBlocks(blocks int, seed int64) core.Task {
	d := data.NewImages(data.ImagesConfig{Classes: 10, C: 3, H: 4, W: 4,
		Train: 1024, Test: 512, Noise: 0.9, LabelFlip: 0.05, Seed: 1})
	return model.NewResNetMLP(d, 16, blocks, seed)
}

// benchTrainer builds the PipeMare-method trainer on the engine-benchmark
// transformer (experiments.EngineBenchTask) at the given stage and
// data-parallel replica counts, every replica running eng (nil:
// Reference), in the command line's dtype. Extra options (e.g.
// WithTransport) are appended after the recipe. replicas must not exceed
// the workload's 8 microbatches.
func (c *config) benchTrainer(stages, replicas int, eng pipemare.Engine, extra ...pipemare.Option) (*pipemare.Trainer, error) {
	opts := append(experiments.EngineBenchOptions(stages), pipemare.WithDType(c.dtype))
	if replicas > 1 {
		opts = append(opts, pipemare.WithReplicas(replicas))
	}
	if eng != nil {
		opts = append(opts, pipemare.WithEngine(eng))
	}
	opts = append(opts, extra...)
	return pipemare.New(experiments.EngineBenchTask(), opts...)
}
