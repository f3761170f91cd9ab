// Package optim provides the optimizers and learning-rate schedules used in
// the PipeMare reproduction: SGD with momentum, AdamW, step-decay and
// linear-warmup/inverse-sqrt schedules, and the paper's Technique 1
// learning-rate rescheduler α_{k,i} = α_base(k) / τ_i^{p_k}.
package optim

import (
	"fmt"
	"math"

	"pipemare/internal/nn"
	"pipemare/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. Step takes
// one learning rate per parameter so that per-stage rescheduling (T1) can
// be applied; use UniformLR for a shared rate.
//
// The update is shardable: StepRange applies update number step+1 (Adam
// bias correction reads it) to any contiguous parameter range. The
// caller owns the clock — a trainer passes the stage's newest weight
// version, the count of updates before this one. Ranges of one update
// must be disjoint; distinct ranges may then run concurrently (each
// parameter's state is touched only by its own range), which is how the
// engines commit the step stage-parallel. Step is the standalone update:
// it counts its own calls and steps every parameter.
//
// Its state is shardable and readable too — the surface the replica-sharded
// commit, fault tolerance and checkpoints are built on. CloneShard builds
// an optimizer of the same type and hyperparameters over params (a
// replica's parameter copies, in the same order and shapes as Params())
// holding moment state only for sh; StateRange reports the shard an
// optimizer holds state for (the full range for the ordinary
// constructors); and MomentTensors returns the live moment tensors of one
// parameter within it, in a fixed per-optimizer order.
type Optimizer interface {
	Step(lrs []float64)
	// StepRange applies the (step+1)-th update to params [lo, hi); lrs[i]
	// is the learning rate of parameter lo+i. [lo, hi) must lie within
	// StateRange.
	StepRange(step, lo, hi int, lrs []float64)
	Params() []*nn.Param
	// StateCopies reports how many weight-sized buffers the optimizer
	// holds per parameter including the master weights and the gradient
	// (3 for momentum-SGD, 4 for Adam), used by the memory model.
	StateCopies() int
	CloneShard(params []*nn.Param, sh Shard) Optimizer
	StateRange() Shard
	MomentTensors(i int) []*tensor.Tensor
}

// UniformLR returns a slice of n copies of lr.
func UniformLR(lr float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lr
	}
	return out
}

// Shard is a contiguous range [Lo, Hi) of optimizer parameter indices. A
// sharded optimizer holds moment state (SGD velocity, Adam moments) only
// for its shard — the ZeRO / PipeDream-2BW weight-sharded update: each
// data-parallel replica owns the optimizer state of its shard and steps
// only that range, so no replica holds the full redundant state. The zero
// Shard is empty (a stateless placeholder for replicas that own nothing).
type Shard struct {
	Lo, Hi int
}

// FullShard covers all n parameters.
func FullShard(n int) Shard { return Shard{0, n} }

// Len returns the number of parameters in the shard.
func (s Shard) Len() int {
	if s.Hi <= s.Lo {
		return 0
	}
	return s.Hi - s.Lo
}

// Contains reports whether [lo, hi) lies within the shard.
func (s Shard) Contains(lo, hi int) bool { return s.Lo <= lo && hi <= s.Hi }

// checkRange panics when a StepRange call leaves the optimizer's state
// shard or disagrees with its learning-rate count.
func checkRange(sh Shard, lo, hi, nLRs int) {
	if !sh.Contains(lo, hi) {
		panic(fmt.Sprintf("optim: param range [%d, %d) outside the optimizer's state shard [%d, %d)", lo, hi, sh.Lo, sh.Hi))
	}
	if nLRs != hi-lo {
		panic(fmt.Sprintf("optim: %d learning rates for param range [%d, %d)", nLRs, lo, hi))
	}
}

// SGD is stochastic gradient descent with heavy-ball momentum and L2
// weight decay (decay added to the gradient, as in the paper's ResNet
// recipe).
type SGD struct {
	ps          []*nn.Param
	Momentum    float64
	WeightDecay float64
	shard       Shard
	vel         []*tensor.Tensor // velocity of params [shard.Lo, shard.Hi), indexed i−shard.Lo
}

// NewSGD returns an SGD optimizer over params, holding state for all of
// them.
func NewSGD(params []*nn.Param, momentum, weightDecay float64) *SGD {
	return NewSGDShard(params, momentum, weightDecay, FullShard(len(params)))
}

// NewSGDShard returns an SGD optimizer over params holding velocity state
// only for the parameters in sh (see Shard).
func NewSGDShard(params []*nn.Param, momentum, weightDecay float64, sh Shard) *SGD {
	s := &SGD{ps: params, Momentum: momentum, WeightDecay: weightDecay, shard: sh}
	s.vel = make([]*tensor.Tensor, sh.Len())
	for i := range s.vel {
		s.vel[i] = tensor.NewLike(params[sh.Lo+i].Data)
	}
	return s
}

// CloneShard builds an SGD sibling over a replica's parameter copies with
// state only for sh (Optimizer).
func (s *SGD) CloneShard(params []*nn.Param, sh Shard) Optimizer {
	return NewSGDShard(params, s.Momentum, s.WeightDecay, sh)
}

// StateRange reports the parameter shard this optimizer holds state for.
func (s *SGD) StateRange() Shard { return s.shard }

// Step applies v ← βv − lr·(g + wd·w); w ← w + v for each parameter.
func (s *SGD) Step(lrs []float64) {
	if len(lrs) != len(s.ps) {
		panic(fmt.Sprintf("optim: %d learning rates for %d params", len(lrs), len(s.ps)))
	}
	s.StepRange(0, 0, len(s.ps), lrs)
}

// StepRange applies the update to params [lo, hi), which must lie within
// the optimizer's state shard. Momentum SGD reads no step clock.
func (s *SGD) StepRange(_, lo, hi int, lrs []float64) {
	checkRange(s.shard, lo, hi, len(lrs))
	for i := lo; i < hi; i++ {
		p := s.ps[i]
		v := s.vel[i-s.shard.Lo]
		lr := lrs[i-lo]
		if p.Data.DType() == tensor.Float32 {
			sgdStep(tensor.F32(p.Data), tensor.F32(p.Grad), tensor.F32(v), s.Momentum, s.WeightDecay, lr)
		} else {
			sgdStep(tensor.F64(p.Data), tensor.F64(p.Grad), tensor.F64(v), s.Momentum, s.WeightDecay, lr)
		}
	}
}

// sgdStep applies the momentum update to one parameter. The arithmetic
// runs in float64 for both dtypes (hyperparameters stay exact); float32
// rounds once at each store.
func sgdStep[T tensor.Elem](w, g, v []T, momentum, wd, lr float64) {
	for j := range w {
		gr := float64(g[j]) + float64(wd*float64(w[j]))
		vj := float64(momentum*float64(v[j])) - float64(lr*gr)
		v[j] = T(vj)
		w[j] = T(float64(w[j]) + vj)
	}
}

// Params returns the optimized parameters.
func (s *SGD) Params() []*nn.Param { return s.ps }

// MomentTensors returns parameter i's live velocity tensor.
func (s *SGD) MomentTensors(i int) []*tensor.Tensor {
	if !s.shard.Contains(i, i+1) {
		panic(fmt.Sprintf("optim: moment tensors of param %d outside state shard [%d, %d)", i, s.shard.Lo, s.shard.Hi))
	}
	return []*tensor.Tensor{s.vel[i-s.shard.Lo]}
}

// StateCopies is 3: master weights, gradient, momentum (the paper's
// footnote 2 accounting, which makes T2's extra buffer a 33% increase).
func (s *SGD) StateCopies() int { return 3 }

// AdamW is Adam with decoupled weight decay, the optimizer the paper uses
// for the Transformer tasks.
type AdamW struct {
	ps          []*nn.Param
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	shard Shard
	m, v  []*tensor.Tensor // moments of params [shard.Lo, shard.Hi), indexed i−shard.Lo
	t     int              // Step calls so far: the standalone API's clock
}

// NewAdamW returns an AdamW optimizer with the paper's Transformer betas
// (0.9, 0.98) unless overridden, holding state for all params.
func NewAdamW(params []*nn.Param, beta1, beta2, eps, weightDecay float64) *AdamW {
	return NewAdamWShard(params, beta1, beta2, eps, weightDecay, FullShard(len(params)))
}

// NewAdamWShard returns an AdamW optimizer over params holding moment
// state only for the parameters in sh (see Shard).
func NewAdamWShard(params []*nn.Param, beta1, beta2, eps, weightDecay float64, sh Shard) *AdamW {
	a := &AdamW{ps: params, Beta1: beta1, Beta2: beta2, Eps: eps, WeightDecay: weightDecay, shard: sh}
	a.m = make([]*tensor.Tensor, sh.Len())
	a.v = make([]*tensor.Tensor, sh.Len())
	for i := range a.m {
		a.m[i] = tensor.NewLike(params[sh.Lo+i].Data)
		a.v[i] = tensor.NewLike(params[sh.Lo+i].Data)
	}
	return a
}

// CloneShard builds an AdamW sibling over a replica's parameter copies
// with state only for sh (Optimizer).
func (a *AdamW) CloneShard(params []*nn.Param, sh Shard) Optimizer {
	return NewAdamWShard(params, a.Beta1, a.Beta2, a.Eps, a.WeightDecay, sh)
}

// StateRange reports the parameter shard this optimizer holds state for.
func (a *AdamW) StateRange() Shard { return a.shard }

// Step applies one AdamW update with bias correction, counting the
// updates Step has applied.
func (a *AdamW) Step(lrs []float64) {
	if len(lrs) != len(a.ps) {
		panic(fmt.Sprintf("optim: %d learning rates for %d params", len(lrs), len(a.ps)))
	}
	a.StepRange(a.t, 0, len(a.ps), lrs)
	a.t++
}

// StepRange applies update step+1 to params [lo, hi), which must lie
// within the optimizer's state shard. The bias-correction factors depend
// only on step, so disjoint ranges of one update are independent.
func (a *AdamW) StepRange(step, lo, hi int, lrs []float64) {
	checkRange(a.shard, lo, hi, len(lrs))
	bc1 := 1 - math.Pow(a.Beta1, float64(step+1))
	bc2 := 1 - math.Pow(a.Beta2, float64(step+1))
	for i := lo; i < hi; i++ {
		p := a.ps[i]
		lr := lrs[i-lo]
		m, v := a.m[i-a.shard.Lo], a.v[i-a.shard.Lo]
		tensor.AdamWInto(p.Data, p.Grad, m, v, a.Beta1, a.Beta2, a.Eps, a.WeightDecay, lr, bc1, bc2)
	}
}

// Params returns the optimized parameters.
func (a *AdamW) Params() []*nn.Param { return a.ps }

// MomentTensors returns parameter i's live first and second moment
// tensors, in that order.
func (a *AdamW) MomentTensors(i int) []*tensor.Tensor {
	if !a.shard.Contains(i, i+1) {
		panic(fmt.Sprintf("optim: moment tensors of param %d outside state shard [%d, %d)", i, a.shard.Lo, a.shard.Hi))
	}
	return []*tensor.Tensor{a.m[i-a.shard.Lo], a.v[i-a.shard.Lo]}
}

// StateCopies is 4: master weights, gradient, first and second moments.
func (a *AdamW) StateCopies() int { return 4 }

// Schedule maps an optimizer step index (0-based) to a base learning rate.
type Schedule interface {
	LR(step int) float64
}

// Constant is a fixed learning rate.
type Constant float64

// LR returns the constant rate.
func (c Constant) LR(int) float64 { return float64(c) }

// StepDecay multiplies the base rate by Factor every DropEvery steps,
// matching the paper's ResNet recipe (drop 10× every 80/30 epochs).
type StepDecay struct {
	Base      float64
	DropEvery int
	Factor    float64
}

// LR returns Base·Factor^⌊step/DropEvery⌋.
func (s StepDecay) LR(step int) float64 {
	if s.DropEvery <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Factor, float64(step/s.DropEvery))
}

// WarmupInvSqrt is the Transformer schedule: linear warmup from Init to
// Peak over Warmup steps, then inverse-square-root decay.
type WarmupInvSqrt struct {
	Peak   float64
	Init   float64
	Warmup int
}

// LR returns the warmup/decay rate for the given step.
func (w WarmupInvSqrt) LR(step int) float64 {
	if w.Warmup <= 0 {
		return w.Peak
	}
	if step < w.Warmup {
		frac := float64(step) / float64(w.Warmup)
		return w.Init + float64((w.Peak-w.Init)*frac)
	}
	return w.Peak * math.Sqrt(float64(w.Warmup)/float64(step))
}

// T1Rates writes the paper's Technique 1 learning rates into out, one per
// delay in taus: during the first k steps the base rate of parameter i is
// divided by its delay raised to the annealing power p = 1 − min(step/k, 1),
// so early steps see α/τ and the schedule relaxes back to the baseline by
// step k. k ≤ 0 disables the rescheduling (every rate is base).
func T1Rates(out, taus []float64, base float64, step, k int) {
	if k <= 0 {
		for i := range out {
			out[i] = base
		}
		return
	}
	p := 1 - math.Min(float64(step)/float64(k), 1)
	for i, tau := range taus {
		if tau < 1 {
			// τ < 1 means the delay is under one optimizer step; dividing
			// by τ^p would *increase* the rate, so clamp at the baseline.
			tau = 1
		}
		out[i] = base / math.Pow(tau, p)
	}
}

var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*AdamW)(nil)
)
