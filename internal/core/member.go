package core

import (
	"fmt"

	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// Group returns the trainer's replica group (replica.Leader): nil for a
// single-replica trainer, and for a follower.
func (h host) Group() *replica.Group { return h.t.group }

// Step returns the optimizer step clock (replica.Leader).
func (h host) Step() int { return h.t.step }

// Epoch returns the epoch clock (replica.Leader).
func (h host) Epoch() int { return h.t.epoch }

// Async reports whether the current epoch runs asynchronously
// (replica.Leader): not GPipe, and past the T3 warmup epochs.
func (h host) Async() bool { return !h.t.synchronous() }

// SetAsync sets the epoch phase the next chunk's slots install under
// (replica.Local). A trainer that drives itself sets its own (attempt); a
// follower's arrives with each chunk, from its leader.
func (h host) SetAsync(async bool) { h.t.async = async }

// SetStep aligns the step clock with the leader's (replica.Member) — the
// tail of a full-state push.
func (h host) SetStep(step int) { h.t.setStep(step) }

// setStep moves the optimizer step clock, keeping the optimizer's own
// update counter (AdamW bias correction) in lockstep when the full
// moment state is resident — the invariant a checkpoint restore or
// leader sync relies on.
func (t *Trainer) setStep(step int) {
	t.step = step
	if t.stateful != nil {
		t.stateful.SetClock(step)
	}
}

// SetEpoch aligns the epoch clock with the leader's (replica.Member), so
// the commit-phase learning rates (T1 annealing, T3 warmup phase) are
// computed from the same epoch everywhere.
func (h host) SetEpoch(epoch int) { h.t.epoch = epoch }

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
// arithmetic, so the owner's PrepareStage sees bitwise the gradient the
// leader-serial commit would have averaged.
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
// full-state push, mirroring the version push the owner's FinishStage did
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
// asynchronous methods read.
func (h host) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
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
