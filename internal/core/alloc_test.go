package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/tensor"
)

// streamTap wraps an engine and keeps the host, commit and minibatches of
// the last stream the trainer ran through it, so a test can run more
// streams of the trainer's own pipeline.
type streamTap struct {
	engine.Engine
	h   engine.Host
	c   engine.Commit
	mbs [][][]int
}

func (e *streamTap) Stream(ctx context.Context, h engine.Host, mbs [][][]int, c engine.Commit) ([]float64, error) {
	e.h, e.c, e.mbs = h, c, mbs
	return e.Engine.Stream(ctx, h, mbs, c)
}

// xfmrMarginalAllocs is what one more minibatch of the transformer
// allocates on a warm stream: nothing, as on ResMLP. Every tape record of
// its layers — the attention cores' and the embeddings' too — goes on a
// typed stack of the tape, so a record that was boxed again would cost
// one allocation per microbatch and layer: (3 attention cores + 2
// embeddings) × N = 4 microbatches = 20 at EncLayers = DecLayers = 1.
const xfmrMarginalAllocs = 0

// groupMarginalAllocs bounds what one more minibatch of an in-process
// R = 2 transformer group allocates beyond a single trainer's. A group
// of more than one runs each minibatch as an attempt of its own, not
// inside one long stream, and the attempt's machinery allocates: the
// epoch's batch split (3), the chunk split and commit plan, a goroutine
// with its closure and WaitGroup per follower in each of the four phases
// (chunks, prepare, step, gather) and per stage in the reduce, and each
// member's one-minibatch stream — 36 measured on the Reference engine.
// The concurrent engine starts and stops its workers and segment queues
// for every stream, 26 more over the two members. Nothing scales with a
// tensor's size: a wire buffer, a gradient export or a GEMM scratch that
// reallocated per minibatch would add that many per stage, tensor or
// microbatch.
var groupMarginalAllocs = map[string]float64{"reference": 40, "concurrent": 70}

// TestSteadyStateMinibatchAllocatesNothing pins that a warm stream's
// per-minibatch work — every slot, each stage's commit, the version push
// into the ring — allocates nothing, on ResMLP and on the transformer
// (xfmrMarginalAllocs): a stream of 2k minibatches allocates no more than
// one of k, per extra minibatch, on the Reference and the concurrent
// engine, in float64 and float32. What a stream allocates
// once (its workers, its loss slice) cancels in the difference. The rings
// have wrapped long before the measurement: the first epoch filled them.
// An in-process R = 2 group commits each minibatch through the group, one
// at a time, so there the difference is between two warm epochs, of 32
// minibatches and of 16, and the group's own per-minibatch machinery is
// bounded by groupMarginalAllocs.
func TestSteadyStateMinibatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 256, Test: 32, Noise: 0.4, Seed: 1})
	text := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5, Train: 128, Test: 16, Seed: 2})
	tasks := []struct {
		name string
		want float64
		task func() core.Task
		opt  func([]*nn.Param) optim.Optimizer
		cfg  core.Config
	}{
		{"resmlp", 0,
			func() core.Task { return model.NewResNetMLP(images, 16, 4, 2) },
			func(ps []*nn.Param) optim.Optimizer { return optim.NewSGD(ps, 0.9, 5e-4) },
			core.Config{Method: core.PipeMare, BatchSize: 16, MicrobatchSize: 4, T1K: 40, T2D: 0.5, Seed: 3}},
		{"transformer", xfmrMarginalAllocs,
			func() core.Task {
				return model.NewTranslation(text, model.TransformerConfig{Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
			},
			func(ps []*nn.Param) optim.Optimizer { return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4) },
			core.Config{Method: core.PipeMare, Stages: 8, BatchSize: 8, MicrobatchSize: 2, T1K: 40, T2D: 0.1, ClipNorm: 5, Seed: 3}},
	}
	engines := []func() engine.Engine{
		func() engine.Engine { return engine.NewReference() },
		func() engine.Engine { return concurrent.New(2) },
	}
	for _, tc := range tasks {
		for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
			for _, eng := range engines {
				tap := &streamTap{Engine: eng()}
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, dt, tap.Name()), func(t *testing.T) {
					task := tc.task()
					task.(core.DTypeSettable).SetDType(dt)
					var ps []*nn.Param
					for _, g := range task.Groups() {
						ps = append(ps, g.Params...)
					}
					cfg := tc.cfg
					cfg.Engine = tap
					tr, err := core.New(task, tc.opt(ps), optim.Constant(1e-3), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tr.Run(context.Background(), 1); err != nil {
						t.Fatal(err)
					}
					const k = 4
					if len(tap.mbs) < 2*k {
						t.Fatalf("an epoch of %d minibatches, want at least %d", len(tap.mbs), 2*k)
					}
					stream := func(n int) func() {
						return func() {
							if _, err := tap.Engine.Stream(context.Background(), tap.h, tap.mbs[:n], tap.c); err != nil {
								t.Fatal(err)
							}
						}
					}
					// A worker parking in the runtime may allocate its
					// bookkeeping now and then: noise that only ever adds,
					// so the least of a few counts is the stream's own.
					once, twice := math.Inf(1), math.Inf(1)
					for range 3 {
						once = min(once, testing.AllocsPerRun(3, stream(k)))
						twice = min(twice, testing.AllocsPerRun(3, stream(2*k)))
					}
					if got := (twice - once) / k; got > tc.want {
						t.Errorf("a warm stream allocates %.2f times per extra minibatch (%.0f over %d minibatches, %.0f over %d), want at most %.0f",
							got, twice, 2*k, once, k, tc.want)
					}
				})
			}
		}
	}
	for _, eng := range engines {
		name := eng().Name()
		t.Run("transformer/R=2/"+name, func(t *testing.T) {
			epoch := func(train int) float64 {
				text := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5, Train: train, Test: 16, Seed: 2})
				task := model.NewTranslation(text, model.TransformerConfig{Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
				var ps []*nn.Param
				for _, g := range task.Groups() {
					ps = append(ps, g.Params...)
				}
				cfg := tasks[1].cfg
				cfg.Replicas, cfg.Engine = 2, eng()
				tr, err := core.New(task, optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4), optim.Constant(1e-3), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				if _, err := tr.Run(context.Background(), 2); err != nil {
					t.Fatal(err)
				}
				n := math.Inf(1)
				for range 3 {
					n = min(n, testing.AllocsPerRun(1, func() {
						if _, err := tr.Run(context.Background(), 1); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return n
			}
			once, twice := epoch(128), epoch(256)
			want := xfmrMarginalAllocs + groupMarginalAllocs[name]
			if got := (twice - once) / 16; got > want {
				t.Errorf("a warm R = 2 group allocates %.2f times per extra minibatch (%.0f over a 32-minibatch epoch, %.0f over 16), want at most %.0f",
					got, twice, once, want)
			}
		})
	}
}
