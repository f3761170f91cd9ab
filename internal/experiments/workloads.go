// Package experiments holds the training recipes the paper's regenerators
// (cmd/pipemare-bench), the repository benchmark (benchmark/) and the
// pipemare-worker process build on: the four substitute workloads of
// Appendix C.1 and the engine-benchmark transformer. It runs nothing and
// links no paper analysis.
package experiments

import (
	"pipemare"
	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

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
// It trains in float64; a leader appends WithDType for another dtype.
func EngineBenchOptions(stages int) []pipemare.Option {
	return []pipemare.Option{
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
}
