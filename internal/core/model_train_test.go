package core_test

import (
	"context"
	"testing"

	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/metrics"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// End-to-end trainer tests over real model tasks. They live in an
// external test package because package model implements core.Replicable
// (CloneTask) and therefore imports core.

func TestGPipeTrainerTrainsRealModel(t *testing.T) {
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 6, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 5e-4)
	tr, err := core.New(task, opt, optim.Constant(0.05), core.Config{
		Method: core.GPipe, BatchSize: 32, MicrobatchSize: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, _ := tr.Run(context.Background(), 12)
	if run.Diverged {
		t.Fatal("GPipe diverged")
	}
	if best := run.Best(); best < 80 {
		t.Fatalf("GPipe best accuracy %.1f%%, want ≥ 80%%", best)
	}
}

func TestPipeMareT1TrainsRealModelAtFineGranularity(t *testing.T) {
	// The headline behaviour: fully asynchronous fine-grained training
	// (one stage per weight group) converges once T1 is enabled.
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 64, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 6, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 5e-4)
	tr, err := core.New(task, opt, optim.Constant(0.05), core.Config{
		Method: core.PipeMare, BatchSize: 32, MicrobatchSize: 8,
		T1K: 40, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, _ := tr.Run(context.Background(), 15)
	if run.Diverged {
		t.Fatal("PipeMare with T1 diverged")
	}
	if best := run.Best(); best < 75 {
		t.Fatalf("PipeMare+T1 best accuracy %.1f%%, want ≥ 75%%", best)
	}
}

func TestDivergenceIsDetected(t *testing.T) {
	d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 128, Test: 32, Noise: 0.4, Seed: 1})
	task := model.NewResNetMLP(d, 16, 6, 2)
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := optim.NewSGD(ps, 0.9, 0)
	// Absurdly large step size: must be caught, not crash.
	tr, err := core.New(task, opt, optim.Constant(50), core.Config{
		Method: core.PipeMare, BatchSize: 32, MicrobatchSize: 8, Seed: 1, LossCap: 1e4,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, _ := tr.RunInto(context.Background(), 5, &metrics.Run{})
	if !run.Diverged || !tr.Diverged() {
		t.Fatal("divergence must be detected and recorded")
	}
}
