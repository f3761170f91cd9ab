package pipemare_test

import (
	"context"
	"math"
	"testing"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

func TestFacadeTrainsEndToEnd(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 128, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(images, 12, 5, 2)
	var epochs int
	tr, err := pipemare.New(task,
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(4),
		pipemare.WithT1(20), pipemare.WithT2(0.5),
		pipemare.WithSeed(1),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewSGD(ps, 0.9, 0)
		}),
		pipemare.WithSchedule(optim.Constant(0.05)),
		pipemare.WithObserver(func(e int, run *pipemare.Run) { epochs = e }),
	)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if run.Diverged {
		t.Fatal("facade training diverged")
	}
	if run.Best() < 70 {
		t.Fatalf("facade best accuracy %.1f%%", run.Best())
	}
	if epochs != 10 {
		t.Fatalf("observer saw %d epochs, want 10", epochs)
	}
}

// TestObserverIndexSafeAcrossChunkedRuns pins that the observer's epoch
// argument always indexes the curve it is handed, even when Run is called
// repeatedly with fresh curves.
func TestObserverIndexSafeAcrossChunkedRuns(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 32, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(images, 8, 3, 2)
	tr, err := pipemare.New(task,
		pipemare.WithMethod(pipemare.GPipe),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(4),
		pipemare.WithObserver(func(e int, run *pipemare.Run) {
			if e != run.Epochs() {
				t.Fatalf("observer epoch %d does not index the curve (%d entries)", e, run.Epochs())
			}
			_ = run.Loss[e-1] // must never panic
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // fresh curve per call
		if _, err := tr.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunHonoursContextCancellation(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 128, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(images, 12, 5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	tr, err := pipemare.New(task,
		pipemare.WithMethod(pipemare.GPipe),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(4),
		pipemare.WithObserver(func(e int, run *pipemare.Run) {
			if e == 2 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tr.Run(ctx, 100)
	if err != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if run.Epochs() != 2 {
		t.Fatalf("cancelled run recorded %d epochs, want 2", run.Epochs())
	}
}

func TestFacadeHelpers(t *testing.T) {
	if got := pipemare.FwdDelay(1, 8, 4); math.Abs(got-15.0/4) > 1e-15 {
		t.Fatalf("FwdDelay = %g", got)
	}
	if pipemare.GPipe.String() != "GPipe" || pipemare.PipeMare.String() != "PipeMare" || pipemare.PipeDream.String() != "PipeDream" {
		t.Fatal("method constants wrong")
	}
	if pipemare.NewReferenceEngine().Name() != "reference" {
		t.Fatal("reference engine name wrong")
	}
}
