package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pipemare/internal/engine"
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
			// The commit completed before the failure surfaced (serial
			// commit: the leader stepped and every survivor synced
			// independently) — the minibatch stands, no replay.
			return loss, nil
		}
		t.group.ResetGrads()
		t.ctlTrack().Instant(trace.NameReplay, -1, -1, 0)
	}
}

// attempt is one try at the minibatch over the current membership: the
// chains under this epoch's phase, then the group's commit when the
// trainer leads one, else engine.Commit over this trainer, sharded across
// the engine's workers when it offers them.
func (t *Trainer) attempt(ctx context.Context, micros [][]int) (float64, error) {
	h := host{t}
	t.async = !t.synchronous()
	loss, err := t.eng.Minibatch(ctx, h, micros)
	if err != nil {
		return loss, err
	}
	if t.group != nil {
		if err := t.group.Commit(len(micros)); err != nil {
			return loss, fmt.Errorf("core: commit: %w", err)
		}
		return loss, nil
	}
	pool, _ := t.eng.(engine.Pool)
	engine.Commit(h, len(micros), pool)
	return loss, nil
}

// synchronous reports whether the current epoch runs synchronously
// (GPipe method, or a T3 warmup epoch).
func (t *Trainer) synchronous() bool {
	return t.cfg.Method == GPipe || t.epoch < t.cfg.WarmupEpochs
}

// ratesInto fills out with the per-parameter learning rates of params
// [lo, hi) at optimizer step `step`: plain schedule while synchronous,
// T1-rescheduled once asynchronous (with the annealing clock starting at
// the async switch, so warmup epochs do not consume it). It is pure in the
// parameter range given the step index and the epoch phase — both frozen
// for the whole commit — so distinct stages may compute their rates
// concurrently (the shard-parallel commit).
func (t *Trainer) ratesInto(out []float64, step, lo, hi int) {
	base := t.sched.LR(step)
	if t.synchronous() || t.cfg.T1K <= 0 {
		for i := range out {
			out[i] = base
		}
		return
	}
	async := step - t.warmupSteps()
	if async < 0 {
		async = 0
	}
	// T1 uses the base schedule at the true step but anneals on async time.
	p := 1 - math.Min(float64(async)/float64(t.cfg.T1K), 1)
	for i := lo; i < hi; i++ {
		tau := t.taus[i]
		if tau < 1 {
			tau = 1
		}
		out[i-lo] = base / math.Pow(tau, p)
	}
}

// warmupSteps returns the number of optimizer steps spent in T3 warmup.
func (t *Trainer) warmupSteps() int {
	perEpoch := t.task.NumTrain() / t.cfg.BatchSize
	return t.cfg.WarmupEpochs * perEpoch
}

// PrepareStage averages the stage's gradients over the minibatch,
// snapshots the stage's pre-step weights for T2, and returns the stage's
// gradient sum-of-squares for clipping.
func (h host) PrepareStage(stage, nMicro int) float64 {
	t := h.t
	n := float64(nMicro)
	sumSq := 0.0
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		g := t.params[i].Grad
		g.DivScalar(n)
		sumSq += g.SumSq()
		if t.prev != nil {
			t.prev[i].CopyFrom(t.params[i].Data)
		}
	}
	return sumSq
}

// ClipScale converts the global gradient sum-of-squares into the clip
// factor, mirroring nn.ClipGradNorm's edge cases.
func (h host) ClipScale(sumSq float64) float64 {
	max := h.t.cfg.ClipNorm
	norm := math.Sqrt(sumSq)
	if max <= 0 || norm <= max || norm == 0 || math.IsNaN(norm) {
		return 1
	}
	return max / norm
}

// ScaleStage multiplies the stage's gradients by the clip factor.
func (h host) ScaleStage(stage int, scale float64) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Grad.ScaleInPlace(scale)
	}
}

// BeginStep advances the step clocks for the update being committed: the
// trainer's step counter and the optimizer's (Adam bias-correction) clock.
// The per-stage rates are computed at the pre-advance step index
// (StepStage).
func (h host) BeginStep() {
	h.t.step++
	h.t.opt.Advance()
}

// StepStage applies the optimizer update to the stage's parameter range
// with that range's (T1) learning rates. Ranges are disjoint and the rate
// computation is pure given the step clock BeginStep advanced, so distinct
// stages step concurrently without any cross-stage arithmetic.
func (h host) StepStage(stage int) {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	lrs := t.stageLRs[stage]
	t.ratesInto(lrs, t.step-1, lo, hi)
	t.opt.StepRange(lo, hi, lrs)
}

// FinishStage zeroes the stage's gradients, updates the stage's T2
// accumulators, and pushes the stage's new weight version.
func (h host) FinishStage(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].ZeroGrad()
		if t.delta != nil {
			pm := t.params[i]
			if pm.Data.DType() == tensor.Float32 {
				t2Update(tensor.F32(t.delta[i]), tensor.F32(t.corrected[i]),
					tensor.F32(pm.Data), tensor.F32(t.prev[i]), t.gamma[i], t.taus[i])
			} else {
				t2Update(tensor.F64(t.delta[i]), tensor.F64(t.corrected[i]),
					tensor.F64(pm.Data), tensor.F64(t.prev[i]), t.gamma[i], t.taus[i])
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
