package engine

import "fmt"

// CommitPlan assigns the P stages of an optimizer commit to owners. It is
// the one sharding rule every commit goes through: the replica group
// assigns owners to replica members, so each replica steps only its shard
// against its local copy of the optimizer state (the ZeRO /
// PipeDream-2BW weight-sharded update), and an in-process owner splits its
// shard the same way into its engine's Workers pieces.
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
