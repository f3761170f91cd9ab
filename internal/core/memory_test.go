package core

import (
	"fmt"
	"testing"

	"pipemare/internal/memmodel"
)

// TestRingMemoryIsTheStashPlusOne pins the ring bytes WeightMemory
// measures to a closed form from the paper's memory model. Stage i keeps
// ⌈2(P−i)/N⌉+1 versions (Clock.Keep), and PipeDream's stash keeps
// ⌈(2(P−i)+1)/N⌉ (memmodel.StashExact). The two counts are equal where N
// divides 2(P−i); everywhere else the ring keeps one copy more. So once
// every ring is full,
//
//	ring = StashExact(sizes, N) + Σ_{i : N ∤ 2(P−i)} size_i.
//
// The masters are one copy of the weights, and with T2 on and no
// recompute, T2 adds two (δ and the corrected weights). GPipe reads only
// the newest version, so its rings hold one copy of the weights.
func TestRingMemoryIsTheStashPlusOne(t *testing.T) {
	sizes := make([]int, 107)
	for g := range sizes {
		sizes[g] = g%5 + 1
	}
	for _, p := range []int{4, 27, 107} {
		for _, n := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("P=%d/N=%d", p, n), func(t *testing.T) {
				const batch = 8
				steps := (2*(p-1) + n - 1) / n // fills the deepest ring, stage 1's
				task := sizedProbeTask(batch*steps, sizes...)
				tr, _ := runProbe(t, task, Config{Method: PipeMare, Stages: p, BatchSize: batch, MicrobatchSize: batch / n, T2D: 0.5}, 1)
				stageSizes := tr.Partition().StageSizes()
				want, weights := memmodel.StashExact(stageSizes, n), 0
				for s, size := range stageSizes {
					if 2*(p-s-1)%n != 0 {
						want += size
					}
					weights += size
				}
				var got StageMemory
				for _, m := range tr.WeightMemory() {
					got.Masters += m.Masters
					got.Ring += m.Ring
					got.Moments += m.Moments
					got.T2 += m.T2
				}
				if got != (StageMemory{Masters: weights, Ring: want, T2: 2 * weights}) {
					t.Fatalf("after %d steps WeightMemory sums to %+v, want %d masters, %d ring, no moments (the probe optimizer keeps none), %d T2",
						steps, got, weights, want, 2*weights)
				}
				sync, _ := runProbe(t, task, Config{Method: GPipe, Stages: p, BatchSize: batch, MicrobatchSize: batch / n}, 1)
				ring := 0
				for _, m := range sync.WeightMemory() {
					ring += m.Ring
				}
				if ring != weights {
					t.Fatalf("GPipe's rings hold %d scalars after %d steps, want one copy of the %d weights", ring, steps, weights)
				}
			})
		}
	}
}
