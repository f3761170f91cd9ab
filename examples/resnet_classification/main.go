// ResNet classification: the paper's CIFAR10 scenario, including the
// failure mode — run with -t1k=0 -t2d=0 to watch raw asynchronous
// pipeline training blow up its parameter norm exactly as in Figure 7.
// Streaming output uses the per-epoch observer hook of the options API;
// -engine selects the execution engine.
package main

import (
	"context"
	"flag"
	"fmt"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

func main() {
	blocks := flag.Int("blocks", 52, "residual blocks (stages = 2*blocks + 3)")
	t1k := flag.Int("t1k", 480, "T1 annealing steps (0 disables)")
	t2d := flag.Float64("t2d", 0.5, "T2 correction decay D (0 disables)")
	epochs := flag.Int("epochs", 40, "training epochs")
	engineName := flag.String("engine", "reference", "execution engine: reference | concurrent")
	workers := flag.Int("workers", 0, "scheduler workers for the concurrent engine (0 = min(P, GOMAXPROCS))")
	partition := flag.String("partition", "even", "stage partition: even | cost | profile")
	flag.Parse()

	images := data.NewImages(data.ImagesConfig{
		Classes: 10, C: 3, H: 4, W: 4,
		Train: 1024, Test: 512, Noise: 0.9, LabelFlip: 0.05, Seed: 1,
	})
	task := model.NewResNetMLP(images, 16, *blocks, 7)

	opts := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithBatchSize(64), pipemare.WithMicrobatches(8),
		pipemare.WithT1(*t1k), pipemare.WithT2(*t2d),
		pipemare.WithSeed(7),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewSGD(ps, 0.9, 5e-4)
		}),
		pipemare.WithSchedule(optim.StepDecay{Base: 0.05, DropEvery: 40 * 16, Factor: 0.1}),
		pipemare.WithObserver(func(e int, run *pipemare.Run) {
			if e%5 == 0 || e == 1 {
				fmt.Printf("epoch %3d  loss %8.3f  acc %5.1f%%  |w| %.3g\n",
					e, run.Loss[e-1], run.Metric[e-1], run.ParamNorm[e-1])
			}
		}),
	}
	switch *engineName {
	case "reference":
	case "concurrent":
		opts = append(opts, pipemare.WithEngine(pipemare.NewConcurrentEngine(*workers)))
	default:
		panic("unknown engine " + *engineName + " (want reference or concurrent)")
	}
	switch *partition {
	case "even":
	case "cost":
		opts = append(opts, pipemare.WithPartition(pipemare.PartitionCost))
	case "profile":
		opts = append(opts, pipemare.WithPartition(pipemare.PartitionProfile))
	default:
		panic("unknown partition " + *partition + " (want even, cost or profile)")
	}
	tr, err := pipemare.New(task, opts...)
	if err != nil {
		panic(err)
	}
	fmt.Printf("PipeMare [%s engine, %s partition]: %d stages, stage imbalance %.2f, τ_fwd(first stage) = %.2f minibatches, T1K=%d, D=%g\n",
		tr.Engine().Name(), tr.PartitionMode(), tr.Stages(), tr.StageImbalance(), tr.Taus()[0], *t1k, *t2d)
	run, err := tr.Run(context.Background(), *epochs)
	if err != nil {
		panic(err)
	}
	if run.Diverged {
		fmt.Println("diverged (loss exceeded the cap)")
		return
	}
	fmt.Printf("best accuracy %.1f%%\n", run.Best())
}
