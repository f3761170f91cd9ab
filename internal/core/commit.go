package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pipemare/internal/optim"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// minibatch runs one minibatch to its committed update — the engine's
// chains, then the commit — and returns its mean microbatch loss. A member
// failure the run can survive (replica.MemberError), from either half, is
// applied here: the group takes the member out — gone when it died, a
// standby when it was merely slow, to rejoin through admitBoundary — and
// the minibatch replays, chains and commit, when its result was lost with
// the member. The replay is bit-identical to a fresh (R−1)-replica run
// from the same state (package replica). With admitBoundary this is every
// membership transition the trainer applies.
func (t *Trainer) minibatch(ctx context.Context, micros [][]int) (float64, error) {
	for {
		loss, err := t.attempt(ctx, micros)
		var me *replica.MemberError
		if !errors.As(err, &me) {
			return loss, err
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
			return loss, nil
		}
		t.group.ResetGrads()
		t.ctlTrack().Instant(trace.NameReplay, -1, -1, 0)
	}
}

// attempt is one try at the minibatch over the current membership: the
// replica group runs every replica's chunk — the leader's too, framed
// with this epoch's phase (Async) — and the reduce (Group.Minibatch), then
// the group's commit. A trainer alone is a group of one.
func (t *Trainer) attempt(ctx context.Context, micros [][]int) (float64, error) {
	loss, err := t.group.Minibatch(ctx, micros)
	if err != nil {
		return loss, err
	}
	if err := t.group.Commit(len(micros)); err != nil {
		return loss, fmt.Errorf("core: commit: %w", err)
	}
	return loss, nil
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
		g := t.params[i].Grad
		g.DivScalar(n)
		sumSq += g.SumSq()
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
// an import, a restore — pushes or replaces it.
func (h host) StepStage(stage int, scale float64) {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	if scale != 1 {
		for i := lo; i < hi; i++ {
			t.params[i].Grad.ScaleInPlace(scale)
		}
	}
	lrs := t.stageLRs[stage]
	step := t.store.Latest(stage)
	t.ratesInto(lrs, step, lo, hi)
	t.opt.StepRange(step, lo, hi, lrs)
	prev := t.store.Get(stage, step)
	for i := lo; i < hi; i++ {
		t.params[i].ZeroGrad()
		if t.delta != nil {
			pm := t.params[i]
			if pm.Data.DType() == tensor.Float32 {
				t2Update(tensor.F32(t.delta[i]), tensor.F32(t.corrected[i]),
					tensor.F32(pm.Data), tensor.F32(prev[i-lo]), t.gamma[i], t.taus[i])
			} else {
				t2Update(tensor.F64(t.delta[i]), tensor.F64(t.corrected[i]),
					tensor.F64(pm.Data), tensor.F64(prev[i-lo]), t.gamma[i], t.taus[i])
			}
		}
	}
	t.store.PushStage(stage)
}

// t2Update advances one parameter's T2 discrepancy accumulator in the
// parameter's own dtype, then refreshes the corrected backward weights:
// δ ← γδ + (1−γ)(w − w_prev) and u_bkwd = w − (τ_fwd − τ_bkwd)·δ.
func t2Update[T tensor.Elem](d, c, cur, prev []T, gamma, tau float64) {
	g := T(gamma)
	tt := T(tau)
	for j := range d {
		d[j] = T(g*d[j]) + T((1-g)*(cur[j]-prev[j]))
	}
	for j := range c {
		c[j] = cur[j] - T(tt*d[j])
	}
}
