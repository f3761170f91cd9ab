package core

import (
	"fmt"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// Engine returns the engine that runs this trainer's chunks
// (replica.Local).
func (h host) Engine() engine.Engine { return h.t.cfg.Engine }

// Async reports whether the current epoch runs asynchronously
// (replica.Leader): not GPipe, and past the T3 warmup epochs' steps.
func (h host) Async() bool {
	return h.t.cfg.Method != GPipe && h.t.steps() >= h.t.warmupSteps()
}

// SetAsync sets the epoch phase the next chunk's slots install under and
// its commit's learning rates follow (replica.Local): the leader's Async,
// framed with every chunk, the leader's own included.
func (h host) SetAsync(async bool) { h.t.async = async }

// TakeStageGrads moves the stage's accumulated gradients out by swap: each
// accumulator trades places with the caller's buffer in bufs, which is
// zeroed as the stage's new accumulator, so the next microbatch
// accumulates from zero again and no element is copied. Buffers are
// allocated on first use (bufs nil); a tensor the caller swaps in must be
// held by nothing else.
func (h host) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	ps := h.t.params[h.t.stageLo[stage]:h.t.stageHi[stage]]
	if bufs == nil {
		bufs = make([]*tensor.Tensor, len(ps))
	}
	for j, p := range ps {
		if bufs[j] == nil {
			bufs[j] = tensor.NewLike(p.Grad)
		} else {
			bufs[j].Zero()
		}
		p.Grad, bufs[j] = bufs[j], p.Grad
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

// SetStageGrads makes bufs the stage's gradient accumulators by swap —
// the scatter half of the sharded commit, and the reduce's chunk-0
// prefix: the leader's fully reduced minibatch gradient becomes the
// owner's accumulator with no arithmetic and no copy, so the owner's
// PrepareStage sees bitwise the gradient a single replica would have
// averaged. bufs gets the old accumulators in exchange. A bufs of another
// layout panics before anything is swapped (the serve loop turns that
// into an error reply).
func (h host) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	ps := h.t.params[h.t.stageLo[stage]:h.t.stageHi[stage]]
	for j, p := range ps {
		if len(bufs) != len(ps) || !p.Grad.SameShape(bufs[j]) || p.Grad.DType() != bufs[j].DType() {
			panic(fmt.Sprintf("core: stage %d gradients do not fit its %d accumulators", stage, len(ps)))
		}
	}
	for j, p := range ps {
		p.Grad, bufs[j] = bufs[j], p.Grad
	}
}

// StageState returns the stage's live post-step state tensors in the
// gather view of the stage layout (layoutStages): the masters, then the
// moments under fault tolerance. Callers must treat the slice and its
// tensors as read-only.
func (h host) StageState(stage int) []*tensor.Tensor {
	return h.t.gather[stage]
}

// ImportStageState copies an owner's StageState into this replica and
// replays the rest of the owner's StepStage — T2 from this replica's δ
// and newest weight version, then the push of the stage's next version
// (finishStage) — the gather half of the sharded commit. Every replica
// pushes every version and imports every master, so those inputs are
// bitwise the owner's, and so is the replay. A src of another layout
// panics before anything is copied (the serve loop turns that into an
// error reply).
func (h host) ImportStageState(stage int, src []*tensor.Tensor) {
	dst := h.t.gather[stage]
	if err := checkStage(stage, dst, src); err != nil {
		panic("core: " + err.Error())
	}
	for k, d := range dst {
		d.CopyFrom(src[k])
	}
	h.t.finishStage(stage)
}

// HandoffState returns the stage's record (replica.Leader): its
// weight-version ring, then rest in the handoff view of the stage layout
// (layoutStages) — T2's δ, and the moments under fault tolerance.
// Read-only, like StageState.
func (h host) HandoffState(stage int) (base int, snaps [][]*tensor.Tensor, rest []*tensor.Tensor) {
	base, snaps = h.t.store.History(stage)
	return base, snaps, h.t.handoffRest[stage]
}

// SetStageState imports a leader's HandoffState over this replica's
// stage (importStage) — one stage of a handoff, and with its ring the
// step count.
func (h host) SetStageState(stage, base int, snaps [][]*tensor.Tensor, rest []*tensor.Tensor) {
	h.t.importStage(stage, base, snaps, rest, h.t.handoffRest[stage])
}

// importStage is the one importer of a stage record — a handoff's
// (SetStageState) and a checkpoint's (apply). A record checkRecord
// refuses panics before anything live changes (the serve loop turns that
// into an error reply). Otherwise it replaces the weight-version ring,
// copies the ring's newest version over the masters and rest over view,
// its half of the stage layout, and recomputes the corrected weights as
// masters − τ·δ, bitwise the T2 update's own expression.
func (t *Trainer) importStage(stage, base int, snaps [][]*tensor.Tensor, rest, view []*tensor.Tensor) {
	if err := t.checkRecord(stage, base, snaps, rest, view); err != nil {
		panic("core: " + err.Error())
	}
	t.store.RestoreStage(stage, base, snaps)
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	for j, w := range t.store.Get(stage, t.store.Latest(stage)) {
		t.masters[lo+j].CopyFrom(w)
	}
	for k, d := range view {
		d.CopyFrom(rest[k])
	}
	if t.delta != nil {
		for i := lo; i < hi; i++ {
			t.corrected[i].CopyFrom(t.masters[i])
			tensor.Axpy(t.corrected[i], -t.taus[i], t.delta[i])
		}
	}
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

// checkRecord reports whether a stage record fits the stage: its ring —
// starting at a version ≥ 0, holding at least one version, each of the
// layout of the stage's masters — and its rest against view, the half of
// the stage layout it overwrites. The importer runs it before it touches
// anything live, and a checkpoint's parse on every stage before the first
// is imported.
func (t *Trainer) checkRecord(stage, base int, snaps [][]*tensor.Tensor, rest, view []*tensor.Tensor) error {
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
	if err := checkStage(stage, view, rest); err != nil {
		return fmt.Errorf("rest: %w", err)
	}
	return nil
}
