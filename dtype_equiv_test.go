package pipemare_test

import (
	"context"
	"fmt"
	"testing"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// dtypeTransformerBuild returns the small translation transformer the
// float32 equivalence tests train.
func dtypeTransformerBuild() (func() pipemare.Task, []pipemare.Option) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	opts := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}))
	return build, opts
}

// TestFloat32EnginesEquivalentOnTransformer pins the per-dtype
// determinism contract on the stage-split transformer: under
// WithDType(Float32), the float32 Reference curve is the ground truth,
// and the work-stealing engine must reproduce it bit for bit at every
// worker count — the same pin the float64 path has always had. The
// float32 curve must also differ from the float64 one: a cast that
// silently never happened would pass the equivalence vacuously.
func TestFloat32EnginesEquivalentOnTransformer(t *testing.T) {
	build, base := dtypeTransformerBuild()
	f64 := runCurve(t, build, 2, 1, append(append([]pipemare.Option{}, base...),
		pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
	f32 := append(append([]pipemare.Option{}, base...), pipemare.WithDType(pipemare.Float32))
	ref := runCurve(t, build, 2, 1, append(append([]pipemare.Option{}, f32...),
		pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
	differs := false
	for e := 0; e < ref.Epochs(); e++ {
		if ref.Loss[e] != f64.Loss[e] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("float32 curve is bitwise equal to float64; WithDType did not take effect")
	}
	for _, w := range []int{1, 2, 8} {
		conc := runCurve(t, build, 2, 1, append(append([]pipemare.Option{}, f32...),
			pipemare.WithEngine(pipemare.NewConcurrentEngine(w)))...)
		requireIdentical(t, fmt.Sprintf("float32-transformer/W=%d", w), ref, conc)
	}
}

// TestFloat32EnginesEquivalentOnSmallDNN repeats the per-dtype pin on the
// all-techniques DNN (T1, T2, T3 warmup, clipping, recompute), so the
// whole install/commit surface is compared under float32.
func TestFloat32EnginesEquivalentOnSmallDNN(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 32, Noise: 0.4, Seed: 1})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 8, 4, 3) }
	for _, m := range []pipemare.Method{pipemare.GPipe, pipemare.PipeMare} {
		opts := append(methodOpts(m),
			pipemare.WithDType(pipemare.Float32),
			pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
			pipemare.WithSchedule(optim.Constant(0.05)))
		ref, conc := trainPair(t, build, 3, opts...)
		requireIdentical(t, "float32-dnn/"+m.String(), ref, conc)
	}
}

// TestFloat32ReplicatedMatchesReference pins float32 data parallelism:
// R = 2 replicas splitting every minibatch (CloneTask re-applies the
// dtype, so both replicas round the shared float64 init identically)
// must match the single-replica float32 Reference curve bit for bit.
func TestFloat32ReplicatedMatchesReference(t *testing.T) {
	build, base := dtypeTransformerBuild()
	f32 := append(append([]pipemare.Option{}, base...), pipemare.WithDType(pipemare.Float32))
	ref := runCurve(t, build, 2, 1, f32...)
	opts := append(append([]pipemare.Option{}, f32...),
		pipemare.WithReplicas(2),
		pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(2))))
	got := runCurve(t, build, 2, 2, opts...)
	requireIdentical(t, "float32-replicated", ref, got)
}

// TestFloat32TransportLoopbackMatchesReference pins the float32 wire
// path: a leader with one remote follower behind the loopback transport
// — the launch handoff and every gradient and state gather crossing the
// dtype-tagged tensor encoding — must train bit-identically to the
// in-process float32 Reference run.
func TestFloat32TransportLoopbackMatchesReference(t *testing.T) {
	build, base := dtypeTransformerBuild()
	f32 := append(append([]pipemare.Option{}, base...), pipemare.WithDType(pipemare.Float32))
	ref := runCurve(t, build, 2, 1, f32...)
	dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option {
		return append([]pipemare.Option{}, f32...)
	})
	leaderOpts := append(append([]pipemare.Option{}, f32...),
		pipemare.WithReplicas(2),
		pipemare.WithEngine(pipemare.NewReferenceEngine()),
		pipemare.WithTransport(dialers...))
	tr, err := pipemare.New(build(), leaderOpts...)
	if err != nil {
		kill()
		t.Fatal(err)
	}
	got, err := tr.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}
	requireIdentical(t, "float32-loopback/R=2", ref, got)
}

// TestFloat32CheckpointRestoreResumesBitIdentical pins the dtype-tagged
// checkpoint frames: a float32 run checkpointed at an epoch boundary and
// restored into a fresh float32 trainer must retrace the uninterrupted
// float32 reference exactly.
func TestFloat32CheckpointRestoreResumesBitIdentical(t *testing.T) {
	build, base := dtypeTransformerBuild()
	f32 := append(append([]pipemare.Option{}, base...), pipemare.WithDType(pipemare.Float32))
	ref := runCurve(t, build, 4, 1, f32...)
	dir := t.TempDir()
	tr1, err := pipemare.New(build(), append(append([]pipemare.Option{}, f32...),
		pipemare.WithCheckpoint(dir, 4))...)
	if err != nil {
		t.Fatal(err)
	}
	head, err := tr1.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "float32-ckpt-head", sliceRun(ref, 0, 2), head)
	if err := tr1.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := pipemare.Restore(dir, build(), append(append([]pipemare.Option{}, f32...),
		pipemare.WithCheckpoint(dir, 4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	tail, err := tr2.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "float32-ckpt-tail", sliceRun(ref, 2, 4), tail)
}

// TestWithDTypeRequiresSettableTask pins the build-time error: a task
// without SetDType must fail New instead of silently training float64.
func TestWithDTypeRequiresSettableTask(t *testing.T) {
	_, err := pipemare.New(newQuadTask(4, 32, 8, 7),
		pipemare.WithDType(pipemare.Float32),
		pipemare.WithSchedule(optim.Constant(0.05)))
	if err == nil {
		t.Fatal("New accepted WithDType on a task without SetDType")
	}
}
