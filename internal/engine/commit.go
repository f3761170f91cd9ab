package engine

import (
	"fmt"

	"pipemare/internal/trace"
)

// CommitPlan assigns the P stages of an optimizer commit to owners. It is
// the one sharding rule every commit goes through: Commit runs a
// single-owner plan serially or spreads a plan's owner shards across a
// Pool's workers, and the replica group assigns owners to replica members
// so each replica steps only its shard against its local copy of the
// optimizer state (the ZeRO / PipeDream-2BW weight-sharded update).
//
// Shards are contiguous ascending runs of stages whose sizes differ by at
// most one — the same deterministic rule the replica layer uses to chunk
// microbatches — so concatenating the owners' shards in owner order
// enumerates the stages exactly once, in stage order. That gives two
// invariants the determinism argument rests on: every stage (and hence
// every optimizer parameter index) has exactly one owner, and any
// stage-ordered reduction (the clip-norm sum) can be folded by walking
// owners in order.
type CommitPlan struct {
	p  int
	lo []int // owner r owns stages [lo[r], lo[r+1]); len = owners+1
}

// NewCommitPlan splits p stages across the given number of owners. Owners
// beyond the stage count receive empty shards.
func NewCommitPlan(p, owners int) CommitPlan {
	if p < 1 {
		panic(fmt.Sprintf("engine: commit plan needs at least one stage, got %d", p))
	}
	if owners < 1 {
		panic(fmt.Sprintf("engine: commit plan needs at least one owner, got %d", owners))
	}
	pl := CommitPlan{p: p, lo: make([]int, owners+1)}
	lo := 0
	for r := 0; r < owners; r++ {
		pl.lo[r] = lo
		sz := p / owners
		if r < p%owners {
			sz++
		}
		lo += sz
	}
	pl.lo[owners] = lo
	return pl
}

// Stages returns P.
func (pl CommitPlan) Stages() int { return pl.p }

// Shard returns the stage range [lo, hi) owner r steps.
func (pl CommitPlan) Shard(r int) (lo, hi int) { return pl.lo[r], pl.lo[r+1] }

// OwnerOf returns the owner of a stage.
func (pl CommitPlan) OwnerOf(stage int) int {
	for r := 1; r < len(pl.lo); r++ {
		if stage < pl.lo[r] {
			return r - 1
		}
	}
	panic(fmt.Sprintf("engine: stage %d outside the %d-stage commit plan", stage, pl.p))
}

// Committer is what one update does, per stage: the surface Commit drives,
// implemented by internal/core.Trainer. PrepareStage and StepStage touch
// only the named stage's parameters and state, so they may run for
// different stages concurrently; ClipScale and BeginStep run once per
// commit, between them.
type Committer interface {
	// Stages returns P, the number of pipeline stages.
	Stages() int
	// PrepareStage averages the stage's accumulated gradients over nMicro
	// microbatches, snapshots the stage's pre-step weights for the T2
	// velocity estimate, and returns the sum of squared (averaged)
	// gradients for global norm clipping.
	PrepareStage(stage, nMicro int) float64
	// ClipScale converts the global gradient sum-of-squares into the
	// clipping factor (1 when clipping is off or the norm is within
	// bounds).
	ClipScale(sumSq float64) float64
	// BeginStep advances the trainer's and the optimizer's step clocks for
	// the update being committed. It runs exactly once per commit, after
	// every stage is prepared and before any StepStage.
	BeginStep()
	// StepStage is the stage's whole update: it multiplies the stage's
	// gradients by the clip factor when that is not 1, computes the
	// stage's per-parameter learning rates (T1 — pure in the stage's
	// parameter range given the step clock and the epoch phase) and
	// applies the optimizer update to that range, then updates the T2
	// velocity accumulator and corrected weights, zeroes the stage's
	// gradients and pushes the stage's new weight version.
	StepStage(stage int, scale float64)
}

// Pool is optionally implemented by engines whose workers can run the
// shards of a commit, between a Minibatch and the next.
type Pool interface {
	// Shards returns how many owner shards a commit splits into: the
	// number of calls ParallelFor makes.
	Shards() int
	// ParallelFor runs fn(i, tk) for every shard i in [0, Shards()) on
	// the pool's workers and returns when every call has; tk is the trace
	// track of the worker that ran the call (nil when tracing is off).
	ParallelFor(fn func(i int, tk *trace.Track))
}

// Commit executes one full optimizer commit against a committer whose
// gradients hold a full minibatch of nMicro microbatches: shard-parallel
// average+snapshot, the stage-ordered clip-norm reduction, one step-clock
// advance, then the shard-parallel stage steps.
// The stages shard contiguously (CommitPlan) across the pool's workers, or
// run as one shard on the calling goroutine when pool is nil; the clip
// partials fold in stage order either way, so the arithmetic is exactly
// the serial stage-ordered commit for any shard count. It is the only
// commit of a single trainer — the replica-sharded commit
// (replica.Group) runs the same sequence across trainers, each owner
// against its own state.
func Commit(c Committer, nMicro int, pool Pool) {
	shards, each := 1, func(fn func(int, *trace.Track)) {
		tr, rep := trace.FromCarrier(c)
		fn(0, tr.Track(rep, trace.TidWorkerBase, "worker 0"))
	}
	if pool != nil {
		shards, each = pool.Shards(), pool.ParallelFor
	}
	plan := NewCommitPlan(c.Stages(), shards)
	sumSqs := make([]float64, plan.Stages())
	each(func(r int, tk *trace.Track) {
		lo, hi := plan.Shard(r)
		t0 := tk.Now()
		for st := lo; st < hi; st++ {
			sumSqs[st] = c.PrepareStage(st, nMicro)
		}
		tk.Span(trace.NameCommitPrepare, t0, lo, -1, 0)
	})
	sumSq := 0.0
	for _, s := range sumSqs {
		sumSq += s
	}
	scale := c.ClipScale(sumSq)
	c.BeginStep()
	each(func(r int, tk *trace.Track) {
		lo, hi := plan.Shard(r)
		t0 := tk.Now()
		for st := lo; st < hi; st++ {
			c.StepStage(st, scale)
		}
		tk.Span(trace.NameCommitStep, t0, lo, -1, 0)
	})
}
