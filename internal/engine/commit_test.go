package engine_test

import (
	"math/rand"
	"testing"

	"pipemare/internal/engine"
)

// TestCommitPlanCoversEveryStageExactlyOnce is the shard-assignment
// property the sharded commit's correctness rests on, swept over
// P ∈ {1..8} × owners ∈ {1..4} (the replica grid) plus owners > P: shards
// are contiguous, ascending, sizes differ by at most one, and
// concatenating them in owner order enumerates every stage exactly once.
func TestCommitPlanCoversEveryStageExactlyOnce(t *testing.T) {
	for p := 1; p <= 8; p++ {
		for owners := 1; owners <= 4; owners++ {
			pl := engine.NewCommitPlan(p, owners)
			if lo, _ := pl.Shard(0); lo != 0 {
				t.Fatalf("P=%d owners=%d: the first shard starts at stage %d", p, owners, lo)
			}
			if _, hi := pl.Shard(owners - 1); hi != p {
				t.Fatalf("P=%d owners=%d: the last shard ends at stage %d, want %d", p, owners, hi, p)
			}
			next, minSz, maxSz := 0, p, 0
			for r := 0; r < owners; r++ {
				lo, hi := pl.Shard(r)
				if lo != next || hi < lo {
					t.Fatalf("P=%d owners=%d: owner %d shard [%d, %d) not contiguous after %d", p, owners, r, lo, hi, next)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				for st := lo; st < hi; st++ {
					if got := pl.OwnerOf(st); got != r {
						t.Fatalf("P=%d owners=%d: OwnerOf(%d) = %d, want %d", p, owners, st, got, r)
					}
				}
				next = hi
			}
			if next != p {
				t.Fatalf("P=%d owners=%d: shards cover %d stages, want %d", p, owners, next, p)
			}
			if owners <= p && maxSz-minSz > 1 {
				t.Fatalf("P=%d owners=%d: shard sizes span [%d, %d], want balanced within 1", p, owners, minSz, maxSz)
			}
		}
		// More owners than stages: the extras own empty shards, coverage holds.
		pl := engine.NewCommitPlan(p, p+3)
		covered := 0
		for r := 0; r < p+3; r++ {
			lo, hi := pl.Shard(r)
			covered += hi - lo
		}
		if covered != p {
			t.Fatalf("P=%d owners=%d: shards cover %d stages, want %d", p, p+3, covered, p)
		}
	}
}

// TestCommitPlanCoversEveryParamExactlyOnce lifts the property to
// optimizer parameter indices: under uneven per-stage parameter counts
// (the partition's stage ranges), the owner shards' induced parameter
// ranges still cover every index exactly once — no parameter is stepped
// twice or skipped, for P ∈ {1..8} × R ∈ {1..4}.
func TestCommitPlanCoversEveryParamExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for p := 1; p <= 8; p++ {
		for r := 1; r <= 4; r++ {
			// Uneven stage parameter counts, some stages heavy, none empty.
			stageLo := make([]int, p)
			stageHi := make([]int, p)
			n := 0
			for st := 0; st < p; st++ {
				stageLo[st] = n
				n += 1 + rng.Intn(5)
				stageHi[st] = n
			}
			steps := make([]int, n) // times each param index is stepped
			pl := engine.NewCommitPlan(p, r)
			for o := 0; o < r; o++ {
				lo, hi := pl.Shard(o)
				for st := lo; st < hi; st++ {
					for i := stageLo[st]; i < stageHi[st]; i++ {
						steps[i]++
					}
				}
			}
			for i, k := range steps {
				if k != 1 {
					t.Fatalf("P=%d R=%d: param %d stepped %d times, want exactly once", p, r, i, k)
				}
			}
		}
	}
}

// TestCommitPlanRejectsDegenerateInputs pins the constructor's contract.
func TestCommitPlanRejectsDegenerateInputs(t *testing.T) {
	for _, tc := range []struct{ p, owners int }{{0, 1}, {1, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCommitPlan(%d, %d) did not panic", tc.p, tc.owners)
				}
			}()
			engine.NewCommitPlan(tc.p, tc.owners)
		}()
	}
}
