package core

import (
	"fmt"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// Engine returns the engine that runs this trainer's chunks
// (replica.Local).
func (h host) Engine() engine.Engine { return h.t.eng }

// Async reports whether the current epoch runs asynchronously
// (replica.Leader): not GPipe, and past the T3 warmup epochs' steps.
func (h host) Async() bool {
	return h.t.cfg.Method != GPipe && h.t.steps() >= h.t.warmupSteps()
}

// SetAsync sets the epoch phase the next chunk's slots install under and
// its commit's learning rates follow (replica.Local): the leader's Async,
// framed with every chunk, the leader's own included.
func (h host) SetAsync(async bool) { h.t.async = async }

// TakeStageGrads moves the stage's accumulated gradients into bufs and
// zeroes the accumulators, so the next microbatch accumulates from zero
// again. Buffers are allocated on first use and recycled by the caller.
func (h host) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	if bufs == nil {
		bufs = make([]*tensor.Tensor, hi-lo)
		for j := range bufs {
			bufs[j] = tensor.NewLike(t.params[lo+j].Grad)
		}
	}
	for j, i := 0, lo; i < hi; i, j = i+1, j+1 {
		bufs[j].CopyFrom(t.params[i].Grad)
		t.params[i].Grad.Zero()
	}
	return bufs
}

// FoldStageGrads adds exported buffers into the stage's accumulators with
// exactly one add per element — the arithmetic of the replica layer's
// tree reduction, matching the nn accumulation contract (nn.Param.Grad)
// so the fold is bit-identical to direct serial accumulation.
func (h host) FoldStageGrads(stage int, bufs []*tensor.Tensor) {
	t := h.t
	for j, i := 0, t.stageLo[stage]; i < t.stageHi[stage]; i, j = i+1, j+1 {
		tensor.AddInto(t.params[i].Grad, bufs[j])
	}
}

// SetStageGrads overwrites the stage's gradient accumulators with bufs —
// the scatter half of the sharded commit: the leader's fully reduced
// minibatch gradient moves to the stage's owner as a pure copy, no
// arithmetic, so the owner's PrepareStage sees bitwise the gradient a
// single replica would have averaged.
func (h host) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	t := h.t
	for j, i := 0, t.stageLo[stage]; i < t.stageHi[stage]; i, j = i+1, j+1 {
		t.params[i].Grad.CopyFrom(bufs[j])
	}
}

// StageState returns the stage's live post-step state tensors in the
// gather view of the stage layout (layoutStages). Callers must treat the
// slice and its tensors as read-only.
func (h host) StageState(stage int) []*tensor.Tensor {
	return h.t.gather[stage]
}

// ImportStageState copies a stage's post-step state from src (an owner's
// StageState) into this replica and pushes the stage's next weight
// version — the gather half of the sharded commit and one stage of a
// handoff, mirroring the version push the owner's StepStage did
// so every replica's version queue replays the same history. A src of
// another layout panics before anything is copied (the serve loop turns
// that into an error reply).
func (h host) ImportStageState(stage int, src []*tensor.Tensor) {
	t := h.t
	dst := t.gather[stage]
	if err := checkStage(stage, dst, src); err != nil {
		panic("core: " + err.Error())
	}
	for k, d := range dst {
		d.CopyFrom(src[k])
	}
	t.store.PushStage(stage)
}

// RestoreVersions replaces a stage's weight-version ring
// (replica.Member) — the restore path for the historical versions the
// asynchronous methods read, and with them the step count. A ring
// checkRing refuses panics before the old ring is touched (the serve loop
// turns that into an error reply).
func (h host) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	if err := h.t.checkRing(stage, base, snaps); err != nil {
		panic("core: " + err.Error())
	}
	h.t.store.RestoreStage(stage, base, snaps)
}

// The trainer's host satisfies the full replica surface.
var _ replica.Leader = host{}

// checkStage reports whether src can be copied over the stage's tensors
// dst, tensor for tensor: the count first, then each tensor's shape and
// dtype, naming the stage and the index. Importers run it before they
// touch anything live.
func checkStage(stage int, dst, src []*tensor.Tensor) error {
	if len(src) != len(dst) {
		return fmt.Errorf("stage %d state has %d tensors, want %d", stage, len(src), len(dst))
	}
	for k, d := range dst {
		if !d.SameShape(src[k]) {
			return fmt.Errorf("stage %d tensor %d shape %v, want %v", stage, k, src[k].Shape, d.Shape)
		}
		if d.DType() != src[k].DType() {
			return fmt.Errorf("stage %d tensor %d dtype %v, want %v", stage, k, src[k].DType(), d.DType())
		}
	}
	return nil
}

// checkRing reports whether snaps can replace the stage's version ring:
// it starts at a version ≥ 0, holds at least one version, and each version
// has the layout of the stage's masters. Both ring importers — a
// checkpoint and a handoff — run it before they touch the live ring.
func (t *Trainer) checkRing(stage, base int, snaps [][]*tensor.Tensor) error {
	if base < 0 {
		return fmt.Errorf("ring %d starts at version %d", stage, base)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("ring %d holds no weight version", stage)
	}
	for _, snap := range snaps {
		if err := checkStage(stage, t.masters[t.stageLo[stage]:t.stageHi[stage]], snap); err != nil {
			return fmt.Errorf("ring: %w", err)
		}
	}
	return nil
}
