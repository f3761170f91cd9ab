package core

import (
	"context"
	"errors"
	"math"

	"pipemare/internal/optim"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// stream runs mbs, the next minibatches of the epoch, to their committed
// updates through the replica group and returns the mean microbatch loss
// of each it committed (replica.Group.Stream). A member failure the run
// can survive (replica.MemberError) is applied here: the group takes the
// member out — gone when it died, a standby when it was merely slow, to
// rejoin through admitBoundary — and the minibatch replays, chains and
// commit, when its result was lost with the member. The replay is
// bit-identical to a fresh (R−1)-replica run from the same state
// (package replica). With admitBoundary this is every membership
// transition the trainer applies.
func (t *Trainer) stream(ctx context.Context, mbs [][][]int) ([]float64, error) {
	var losses []float64
	for {
		ls, err := t.group.Stream(ctx, mbs)
		losses = append(losses, ls...)
		var me *replica.MemberError
		if !errors.As(err, &me) {
			return losses, err
		}
		if me.To == replica.Standby {
			t.ctlTrack().Instant(trace.NameDemote, -1, -1, 0)
		} else {
			t.ctlTrack().Instant(trace.NameEvict, -1, -1, 0)
		}
		t.group.Transition(me.ID, me.To)
		if !me.Replay {
			// The commit completed before the failure surfaced (the member
			// died after the prepare phase and the leader took over its
			// shard) — the minibatch stands, no replay.
			return losses, nil
		}
		t.group.ResetGrads()
		t.ctlTrack().Instant(trace.NameReplay, -1, -1, 0)
		mbs = mbs[len(ls):]
	}
}

// ratesInto fills out with the per-parameter learning rates of params
// [lo, hi) at optimizer step `step`: plain schedule while synchronous,
// T1-rescheduled once asynchronous (with the annealing clock starting at
// the async switch, so warmup epochs do not consume it). The phase is the
// minibatch's — it arrives with every replica's chunk, the leader's
// included (SetAsync) — so a follower never reads an epoch clock.
// It is pure in the parameter range given the step index and the phase —
// both frozen for the whole commit — so distinct stages may compute their
// rates concurrently (the shard-parallel commit).
func (t *Trainer) ratesInto(out []float64, step, lo, hi int) {
	k := t.cfg.T1K
	if !t.async {
		k = 0
	}
	// T1 uses the base schedule at the true step but anneals on async time.
	optim.T1Rates(out, t.taus[lo:hi], t.sched.LR(step), max(step-t.warmupSteps(), 0), k)
}

// warmupSteps returns the number of optimizer steps spent in T3 warmup.
func (t *Trainer) warmupSteps() int { return t.cfg.WarmupEpochs * t.perEpoch() }

// PrepareStage averages the stage's gradients over the minibatch and
// returns the stage's gradient sum-of-squares for clipping.
func (h host) PrepareStage(stage, nMicro int) float64 {
	t := h.t
	n := float64(nMicro)
	sumSq := 0.0
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		sumSq += t.params[i].Grad.DivSumSq(n)
	}
	return sumSq
}

// ClipScale converts the global gradient sum-of-squares into the clip
// factor max/norm — 1, no clip, when clipping is off (max <= 0) or the
// norm is within max, zero or NaN.
func (h host) ClipScale(sumSq float64) float64 {
	max := h.t.cfg.ClipNorm
	norm := math.Sqrt(sumSq)
	if max <= 0 || norm <= max || norm == 0 || math.IsNaN(norm) {
		return 1
	}
	return max / norm
}

// Lag returns how many of the updates committed before microbatch s's
// minibatch the stage's forward slot of s does not read (engine.Commit):
// the minibatch index less the slot's version, 0 in a synchronous epoch,
// whose slots read the live masters.
func (h host) Lag(s, stage int) int {
	t := h.t
	if !t.async {
		return 0
	}
	return t.clock.Minibatch(s) - t.clock.FwdVersion(s, stage+1)
}

// Clips reports whether the commit folds a clip scale (engine.Commit).
func (h host) Clips() bool { return h.t.cfg.ClipNorm > 0 }

// StepStage is the stage's whole update: it multiplies the stage's
// gradients by the clip factor (when that is not 1), applies the optimizer
// update to the stage's parameter range with that range's (T1) learning
// rates, then zeroes the gradients, updates the T2 accumulators and pushes
// the stage's new weight version. The update's step index — for the
// schedule, T1 and Adam's bias correction alike — is the stage's newest
// version before the push: the steps committed before this one. Ranges
// are disjoint and each stage reads only its own ring, so distinct stages
// step concurrently without any cross-stage arithmetic. T2's pre-step
// weights are that newest version: every change to the masters — a step,
// an import, a restore — pushes or replaces it. It steps the masters
// wherever the stage's slots left its parameters pointing — a commit job
// of a stream runs between slots that install versions — and leaves them
// on the masters for the next slot's install; a Wᵀ panel a forward packed
// stays valid, since a ring snapshot never changes.
func (h host) StepStage(stage int, scale float64) {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	for i := lo; i < hi; i++ {
		t.params[i].Data = t.masters[i]
	}
	if scale != 1 {
		for i := lo; i < hi; i++ {
			t.params[i].Grad.ScaleInPlace(scale)
		}
	}
	lrs := t.stageLRs[stage]
	step := t.store.Latest(stage)
	t.ratesInto(lrs, step, lo, hi)
	t.opt.StepRange(step, lo, hi, lrs)
	for i := lo; i < hi; i++ {
		t.params[i].ZeroGrad()
	}
	t.finishStage(stage)
}

// finishStage is the tail of a stage's step, wherever the new masters
// came from — the optimizer (StepStage) or the owner (ImportStageState):
// it updates the T2 accumulators against the pre-step weights, the ring's
// newest version, and pushes the stage's new weight version.
func (t *Trainer) finishStage(stage int) {
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	if t.delta != nil {
		prev := t.store.Get(stage, t.store.Latest(stage))
		for i := lo; i < hi; i++ {
			tensor.T2Into(t.delta[i], t.corrected[i], t.masters[i], prev[i-lo], t.gamma[i], t.taus[i])
		}
	}
	t.store.PushStage(stage)
}
