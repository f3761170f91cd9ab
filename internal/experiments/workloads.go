package experiments

import (
	"context"
	"math"

	"pipemare"
	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/memmodel"
	"pipemare/internal/metrics"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/throughput"
)

// Engine, when non-nil, is the execution engine every workload run
// trains with. It is set by pipemare-bench's -engine flag; nil means the
// default Reference engine.
var Engine pipemare.Engine

// Replicas, when > 1, runs every workload with that many data-parallel
// pipeline replicas (pipemare.WithReplicas). It is set by pipemare-bench's
// -replicas flag; curves are bit-identical to single-replica runs, so the
// experiment tables do not change — only the wall-clock does.
var Replicas int

// Partition, when not PartitionEven, selects the stage-partition mode for
// every workload run (pipemare.WithPartition). It is set by
// pipemare-bench's -partition flag. Unlike the engine/replica hooks it
// changes each parameter's stage and therefore its delay τ_fwd, so the
// experiment tables shift with it — it exists to study how the paper's
// techniques behave under cost-balanced pipeline geometry.
var Partition pipemare.PartitionMode

// DType, when Float32, trains every workload run (and the engine
// benchmark) in float32 (pipemare.WithDType). It is set by
// pipemare-bench's -dtype flag. Each dtype is its own deterministic
// ground truth, so float32 results are comparable across engines and
// replica counts but not bit-comparable to float64 runs.
var DType pipemare.DType

// Workload bundles a task constructor with its training recipe, mirroring
// the paper's Appendix C.1 hyperparameter tables for the substituted
// tasks.
type Workload struct {
	Name string
	// Paper identifies which of the paper's benchmarks this substitutes.
	Paper string

	NewTask func(seed int64) core.Task
	// NewOptimizer builds the optimizer over the task's parameters.
	NewOptimizer func(ps []*nn.Param) optim.Optimizer
	NewSchedule  func() optim.Schedule

	BatchSize      int
	MicrobatchSize int
	Epochs         int     // reference epoch budget
	T1K            int     // reference annealing steps
	T2D            float64 // reference discrepancy-correction decay
	WarmupEpochs   int     // reference T3 warmup epochs
	ClipNorm       float64
	TargetSlack    float64 // target = best-across-methods − slack (1.0 acc / 0.4 BLEU)
}

// Params extracts the parameter list of a task in group order.
func Params(t core.Task) []*nn.Param {
	var ps []*nn.Param
	for _, g := range t.Groups() {
		ps = append(ps, g.Params...)
	}
	return ps
}

// classifierWithBlocks builds the standard synthetic classification task
// with a residual MLP of the given block count (2·blocks + 3 weight
// groups), used by the deeper-model experiments (Figures 4, 7 and 11).
func classifierWithBlocks(blocks int, seed int64) core.Task {
	d := data.NewImages(data.ImagesConfig{Classes: 10, C: 3, H: 4, W: 4,
		Train: 1024, Test: 512, Noise: 0.9, LabelFlip: 0.05, Seed: 1})
	return model.NewResNetMLP(d, 16, blocks, seed)
}

// CIFARLike is the CIFAR10/ResNet50 substitute: a 107-group residual MLP
// on synthetic images with 5% label noise, trained with momentum SGD and a
// step-decay schedule (Appendix C.1 Table 6 analogue).
func CIFARLike() Workload {
	return Workload{
		Name:  "cifar-like",
		Paper: "ResNet50 / CIFAR10 (107 stages)",
		NewTask: func(seed int64) core.Task {
			d := data.NewImages(data.ImagesConfig{Classes: 10, C: 3, H: 4, W: 4,
				Train: 1024, Test: 512, Noise: 0.9, LabelFlip: 0.05, Seed: 1})
			return model.NewResNetMLP(d, 16, 52, seed) // 107 weight groups
		},
		NewOptimizer: func(ps []*nn.Param) optim.Optimizer {
			return optim.NewSGD(ps, 0.9, 5e-4)
		},
		NewSchedule: func() optim.Schedule {
			// Drop 10x after 40 epochs (16 steps/epoch).
			return optim.StepDecay{Base: 0.05, DropEvery: 40 * 16, Factor: 0.1}
		},
		BatchSize: 64, MicrobatchSize: 8,
		Epochs: 60,
		// K = 1/4 of the first fixed-LR phase (paper's ResNet rule):
		// 40 epochs × 16 steps / 4 ... empirically 30 epochs works best here.
		T1K: 480, T2D: 0.5, WarmupEpochs: 0,
		TargetSlack: 1.0,
	}
}

// ImageNetLike is the ImageNet/ResNet50 substitute: a harder 20-class task
// with the same 107-group model family but wider layers.
func ImageNetLike() Workload {
	w := CIFARLike()
	w.Name = "imagenet-like"
	w.Paper = "ResNet50 / ImageNet (107 stages)"
	w.NewTask = func(seed int64) core.Task {
		d := data.NewImages(data.ImagesConfig{Classes: 20, C: 3, H: 4, W: 4,
			Train: 2048, Test: 512, Noise: 1.1, LabelFlip: 0.08, Seed: 2})
		return model.NewResNetMLP(d, 24, 52, seed)
	}
	w.NewSchedule = func() optim.Schedule {
		return optim.StepDecay{Base: 0.05, DropEvery: 30 * 32, Factor: 0.1}
	}
	w.Epochs = 45
	w.T1K = 32 * 20 // 20 epochs × 32 steps
	return w
}

// IWSLTLike is the IWSLT14/Transformer substitute: a 48-group
// encoder–decoder Transformer on the synthetic translation task with AdamW
// and linear-warmup/inverse-sqrt schedule (Appendix C.1 Table 7 analogue).
func IWSLTLike() Workload {
	return Workload{
		Name:  "iwslt-like",
		Paper: "12-layer Transformer / IWSLT14 (93 stages)",
		NewTask: func(seed int64) core.Task {
			ds := data.NewTranslation(data.TranslationConfig{Vocab: 13, SrcLen: 6,
				Train: 1024, Test: 128, Seed: 2})
			return model.NewTranslation(ds, model.TransformerConfig{
				Dim: 32, Heads: 2, EncLayers: 2, DecLayers: 2, Seed: seed})
		},
		NewOptimizer: func(ps []*nn.Param) optim.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		},
		NewSchedule: func() optim.Schedule {
			return optim.WarmupInvSqrt{Peak: 5e-3, Init: 1e-7, Warmup: 100}
		},
		BatchSize: 64, MicrobatchSize: 4,
		Epochs: 90,
		// Paper's Transformer rule: K = 5 × LR warmup steps.
		T1K: 500, T2D: 0.1, WarmupEpochs: 10,
		ClipNorm:    5,
		TargetSlack: 0.4,
	}
}

// WMTLike is the WMT17 substitute: a larger vocabulary/longer-sequence
// translation task over a deeper Transformer.
func WMTLike() Workload {
	w := IWSLTLike()
	w.Name = "wmt-like"
	w.Paper = "12-layer Transformer / WMT17 (91 stages, shared-embedding analogue)"
	w.NewTask = func(seed int64) core.Task {
		ds := data.NewTranslation(data.TranslationConfig{Vocab: 17, SrcLen: 7,
			Train: 2048, Test: 128, Seed: 3})
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 32, Heads: 2, EncLayers: 2, DecLayers: 2, Seed: seed})
	}
	w.NewSchedule = func() optim.Schedule {
		return optim.WarmupInvSqrt{Peak: 7e-3, Init: 1e-7, Warmup: 100}
	}
	w.Epochs = 60
	w.WarmupEpochs = 4
	return w
}

// RunSpec describes one training run of a workload.
type RunSpec struct {
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

// RunResult carries a run's curve plus the derived paper metrics.
type RunResult struct {
	Run          *metrics.Run
	Stages       int
	N            int
	Throughput   float64 // amortized normalized throughput over the full run
	WeightOptMem float64 // weight+optimizer memory in units of W
	MemRatio     float64 // relative to the synchronous base
	Taus         []float64
}

// Run executes one configuration of the workload through the public
// options API.
func (w Workload) Run(spec RunSpec) RunResult {
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
	if Engine != nil {
		opts = append(opts, pipemare.WithEngine(Engine))
	}
	if Replicas > 1 {
		opts = append(opts, pipemare.WithReplicas(Replicas))
	}
	if Partition != pipemare.PartitionEven {
		opts = append(opts, pipemare.WithPartition(Partition))
	}
	if DType != pipemare.Float64 {
		opts = append(opts, pipemare.WithDType(DType))
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

	res := RunResult{Run: run, Stages: tr.Stages(), N: tr.Microbatches(), Taus: tr.Taus()}
	ps := Params(task)
	warm := warmup
	main := 1.0
	if spec.Method == core.GPipe {
		main = throughput.PaperGPipeThroughput
		warm = 0
	}
	res.Throughput = metrics.AmortizedThroughput(run.Epochs(), warm, throughput.PaperGPipeThroughput, main)
	sizes := tr.Partition().StageSizes()
	mm := memmodel.Method(spec.Method)
	res.WeightOptMem = memmodel.WeightOptimizer(mm, opt.StateCopies(), sizes, res.N, spec.UseT2) / float64(nn.TotalSize(ps))
	base := float64(opt.StateCopies())
	res.MemRatio = res.WeightOptMem / base
	return res
}

// TimeTo returns the normalized time for this run to reach target, using
// the throughput model (GPipe at 0.3, async at 1.0, warmup epochs at 0.3).
func (r RunResult) TimeTo(target float64, method core.Method, warmupEpochs int) float64 {
	e := r.Run.EpochsToTarget(target)
	if method == core.GPipe {
		return metrics.TimeToTarget(e, 0, throughput.PaperGPipeThroughput, throughput.PaperGPipeThroughput)
	}
	return metrics.TimeToTarget(e, warmupEpochs, throughput.PaperGPipeThroughput, 1.0)
}

// Target computes the paper's target metric: best across the given runs
// minus the workload slack.
func (w Workload) Target(results ...RunResult) float64 {
	best := 0.0
	for _, r := range results {
		if b := r.Run.Best(); b > best {
			best = b
		}
	}
	return math.Max(best-w.TargetSlack, 0)
}

// EngineBenchTask builds the engine-benchmark transformer (dim 128, 2+2
// layers, batch 32, 8 microbatches). Leader and worker processes both
// call it, so every replica builds the same model and data; the leader's
// state handoff then gives each worker the leader's weights.
func EngineBenchTask() core.Task {
	ds := data.NewTranslation(data.TranslationConfig{
		Vocab: 13, SrcLen: 6, Train: 256, Test: 32, Seed: 2})
	return model.NewTranslation(ds, model.TransformerConfig{
		Dim: 128, Heads: 4, EncLayers: 2, DecLayers: 2, Seed: 1})
}

// EngineBenchOptions returns the EngineBenchTask training recipe —
// the option set shared by the leader trainer and `pipemare-worker`
// follower processes, which pass it to ServeFollower for its optimizer
// and schedule (the rest of a follower's recipe is the leader's hello).
func EngineBenchOptions(stages int) []pipemare.Option {
	opts := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(stages),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(8),
		pipemare.WithT1(100), pipemare.WithT2(0.1), pipemare.WithClipNorm(5),
		pipemare.WithSeed(1),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 100}),
	}
	if DType != pipemare.Float64 {
		opts = append(opts, pipemare.WithDType(DType))
	}
	return opts
}

// NewReplicatedBenchTrainer builds the PipeMare-method trainer on
// EngineBenchTask at the given stage and data-parallel replica counts,
// every replica running eng (nil: Reference). Extra options
// (e.g. WithTransport) are appended after the recipe. replicas must not
// exceed the workload's 8 microbatches.
func NewReplicatedBenchTrainer(stages, replicas int, eng pipemare.Engine, extra ...pipemare.Option) (*pipemare.Trainer, error) {
	opts := EngineBenchOptions(stages)
	if replicas > 1 {
		opts = append(opts, pipemare.WithReplicas(replicas))
	}
	if eng != nil {
		opts = append(opts, pipemare.WithEngine(eng))
	}
	opts = append(opts, extra...)
	return pipemare.New(EngineBenchTask(), opts...)
}
