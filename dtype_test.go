package pipemare_test

import (
	"context"
	"testing"

	"pipemare"
	"pipemare/internal/optim"
)

// TestFloat32CheckpointRestoreResumesBitIdentical pins the dtype-tagged
// checkpoint frames: a float32 run checkpointed at an epoch boundary and
// restored into a fresh float32 trainer must retrace the uninterrupted
// float32 reference exactly.
func TestFloat32CheckpointRestoreResumesBitIdentical(t *testing.T) {
	build, base := xfmrRecipe()
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
