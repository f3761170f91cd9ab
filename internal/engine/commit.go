package engine

import (
	"fmt"

	"pipemare/internal/trace"
)

// CommitPlan assigns the P stages of an optimizer commit to owners. It is
// the one sharding rule every commit goes through: the replica group
// assigns owners to replica members, so each replica steps only its shard
// against its local copy of the optimizer state (the ZeRO /
// PipeDream-2BW weight-sharded update), and the concurrent engine cuts a
// pipeline into its segments the same way.
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

// Commits runs commit jobs: a stage range's PrepareStage calls, each
// followed at once by the stage's StepStage under scale 1 when the commit
// does not clip; and for a clipping commit, the stage-ordered fold of the
// partials and the steps under its scale. An engine runs a stream's commit
// through it, and a replica group its sharded commit, a job per member's
// shard. A nil *Commits is a stream whose caller commits.
type Commits struct {
	c      Commit
	sumSqs []float64 // per-stage partials of the minibatch being folded; nil: no clip
}

// NewCommits returns the commit jobs of a p-stage stream over c, nil when
// c is nil.
func NewCommits(c Commit, p int) *Commits {
	if c == nil {
		return nil
	}
	cs := &Commits{c: c}
	if c.Clips() {
		cs.sumSqs = make([]float64, p)
	}
	return cs
}

// Clips reports whether the steps wait for the clip fold.
func (cs *Commits) Clips() bool { return cs != nil && cs.sumSqs != nil }

// Job runs stages [lo, hi)'s commit job for a minibatch of n
// microbatches, as one span on tk: each stage's PrepareStage, then its
// StepStage unless the commit clips, in which case the partial waits in
// the fold for Scale.
func (cs *Commits) Job(tk *trace.Track, lo, hi, n int) {
	t0 := tk.Now()
	for st := lo; st < hi; st++ {
		sq := cs.c.PrepareStage(st, n)
		if cs.sumSqs != nil {
			cs.sumSqs[st] = sq
		} else {
			cs.c.StepStage(st, 1)
		}
	}
	name := trace.NameCommitStep
	if cs.sumSqs != nil {
		name = trace.NameCommitPrepare
	}
	tk.Span(name, t0, lo, -1, 0)
}

// Scale folds the partials in stage order into the clip factor. Every
// stage's Job of the minibatch must happen before it.
func (cs *Commits) Scale() float64 {
	sum := 0.0
	for _, sq := range cs.sumSqs {
		sum += sq
	}
	return cs.c.ClipScale(sum)
}

// Step runs a clipping commit's steps of stages [lo, hi) under scale, as
// one span on tk.
func (cs *Commits) Step(tk *trace.Track, lo, hi int, scale float64) {
	t0 := tk.Now()
	for st := lo; st < hi; st++ {
		cs.c.StepStage(st, scale)
	}
	tk.Span(trace.NameCommitStep, t0, lo, -1, 0)
}
