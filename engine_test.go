package pipemare_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// TestConcurrentEngineSurvivesRepeatedRuns pins that an engine is a value:
// the same engine instance serves chunked Run calls and then a second
// trainer.
func TestConcurrentEngineSurvivesRepeatedRuns(t *testing.T) {
	eng := concurrent.New(2)
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	tr, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(8),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(3), pipemare.WithEngine(eng),
		pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	run := &pipemare.Run{}
	for i := 0; i < 3; i++ {
		if _, err := tr.RunInto(context.Background(), 2, run); err != nil {
			t.Fatal(err)
		}
	}
	if run.Epochs() != 6 {
		t.Fatalf("chunked runs recorded %d epochs, want 6", run.Epochs())
	}
	// The same instance must also serve a second trainer.
	tr2, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.GPipe),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(2),
		pipemare.WithEngine(eng), pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentEngineServesManyTrainers pins that an engine is a value:
// one concurrent engine serves chunked RunInto calls at R ∈ {1, 2}, and then
// an R = 1 and an R = 2 trainer training on it at the same time, each
// retracing its solo curve bit for bit.
func TestConcurrentEngineServesManyTrainers(t *testing.T) {
	eng := concurrent.New(2)
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	opts := func(r int) []pipemare.Option {
		return []pipemare.Option{
			pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(8),
			pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
			pipemare.WithReplicas(r),
			pipemare.WithSeed(3), pipemare.WithEngine(eng),
			pipemare.WithSchedule(optim.Constant(0.05))}
	}
	rs := []int{1, 2}
	solo := make([]*pipemare.Run, len(rs))
	for i, r := range rs {
		tr, err := pipemare.New(build(), opts(r)...)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = &pipemare.Run{}
		for k := 0; k < 3; k++ {
			if _, err := tr.RunInto(context.Background(), 2, solo[i]); err != nil {
				t.Fatal(err)
			}
		}
		if solo[i].Epochs() != 6 {
			t.Fatalf("R=%d: chunked runs recorded %d epochs, want 6", r, solo[i].Epochs())
		}
	}
	shared := make([]*pipemare.Run, len(rs))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := pipemare.New(build(), opts(r)...)
			if err == nil {
				shared[i], err = tr.Run(context.Background(), 6)
			}
			if err != nil {
				t.Errorf("R=%d beside another trainer: %v", r, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range rs {
		requireIdentical(t, fmt.Sprintf("shared/R=%d", r), solo[i], shared[i])
	}
}

// TestProfilePartitionMode pins the measured-cost path: a profile-mode
// trainer builds, measures a positive cost for every stage, and trains.
// That its split is the DP optimum under its measured costs, and that its
// followers take that split from the hello rather than profiling their
// own, is pinned in internal/core (TestFollowerTakesTheLeadersStageMap).
func TestProfilePartitionMode(t *testing.T) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	prof, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(11),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}),
		pipemare.WithPartition(pipemare.PartitionProfile))
	if err != nil {
		t.Fatal(err)
	}
	if prof.PartitionMode() != pipemare.PartitionProfile {
		t.Fatalf("mode = %v", prof.PartitionMode())
	}
	for s, c := range prof.StageCosts() {
		if c <= 0 {
			t.Fatalf("measured cost of stage %d is %g, want > 0", s, c)
		}
	}
	if _, err := prof.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedEngineSurvivesRepeatedRuns pins the same under
// replication: chunked RunInto calls and a second trainer run on the one
// engine value every replica of the group shares.
func TestReplicatedEngineSurvivesRepeatedRuns(t *testing.T) {
	eng := concurrent.New(0)
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	tr, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(8),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithReplicas(2),
		pipemare.WithSeed(3), pipemare.WithEngine(eng),
		pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	run := &pipemare.Run{}
	for i := 0; i < 3; i++ {
		if _, err := tr.RunInto(context.Background(), 2, run); err != nil {
			t.Fatal(err)
		}
	}
	if run.Epochs() != 6 {
		t.Fatalf("chunked runs recorded %d epochs, want 6", run.Epochs())
	}
	// The same engine instance must also serve a second trainer.
	tr2, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.GPipe),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithReplicas(2),
		pipemare.WithEngine(eng), pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}
