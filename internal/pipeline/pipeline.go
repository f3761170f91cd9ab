// Package pipeline implements the execution model of §2 of the PipeMare
// paper: partitioning model weights into P pipeline stages, the
// microbatch-exact timing of a bubble-free pipeline (which yields the
// Table 1 delays), and the per-stage weight-version store that the paper's
// own simulator calls "a queue of weights for each individual pipeline
// stage".
//
// Timing model (1-indexed stages i ∈ {1..P}, global microbatch counter s):
//
//	forward  of microbatch s at stage i occupies slot  T_f = s + i − 1
//	backward of microbatch s at stage i occupies slot  T_b = s + 2P − i
//
// so the weight read in the forward pass is T_b − T_f = 2(P−i)+1 microbatch
// slots older than the point where its gradient is applied — exactly the
// paper's τ_fwd. Stage i commits the optimizer update for minibatch t when
// the backward of the minibatch's last microbatch passes it, at slot
// t·N + N − 1 + 2P − i.
package pipeline

import (
	"fmt"
	"math"

	"pipemare/internal/nn"
	"pipemare/internal/tensor"
)

// ParamGroup is a set of parameters that must be assigned to the same
// pipeline stage — the paper always keeps the weight and bias of one layer
// together ("treating the weight and bias in the same layer as a single
// model weight").
type ParamGroup struct {
	Name   string
	Params []*nn.Param
}

// Partition is an assignment of param groups to P contiguous stages.
type Partition struct {
	P      int
	Groups []ParamGroup
	// StageOf maps group index to its (0-indexed) stage.
	StageOf []int
	// Stages lists the parameters of each stage in forward order.
	Stages [][]*nn.Param
}

// PartitionGroups assigns the groups, in topological (given) order, evenly
// to P stages: group g goes to stage ⌊g·P/G⌋, which is the paper's "divide
// these model weights evenly into P stages". P must be between 1 and the
// number of groups so every stage holds at least one model weight.
func PartitionGroups(groups []ParamGroup, p int) (*Partition, error) {
	g := len(groups)
	if g == 0 {
		return nil, fmt.Errorf("pipeline: no parameter groups to partition")
	}
	if p < 1 || p > g {
		return nil, fmt.Errorf("pipeline: cannot split %d weight groups into %d stages", g, p)
	}
	part := &Partition{P: p, Groups: groups, StageOf: make([]int, g), Stages: make([][]*nn.Param, p)}
	for i, grp := range groups {
		s := i * p / g
		part.StageOf[i] = s
		part.Stages[s] = append(part.Stages[s], grp.Params...)
	}
	return part, nil
}

// PartitionMode selects how weight groups are split into stages.
type PartitionMode int

// Partition modes.
const (
	// PartitionEven splits by group count — the paper's "divide these
	// model weights evenly into P stages" (the historical default).
	PartitionEven PartitionMode = iota
	// PartitionCost balances the analytic per-group compute cost
	// (nn.Program.GroupCosts) across stages, minimizing the bottleneck
	// stage.
	PartitionCost
	// PartitionProfile balances measured per-group wall time from a
	// one-microbatch profiling pass (nn.Program.MeasureGroupCosts).
	PartitionProfile
)

// String names the mode (the spelling used by bench records and flags).
func (m PartitionMode) String() string {
	switch m {
	case PartitionEven:
		return "even"
	case PartitionCost:
		return "cost"
	case PartitionProfile:
		return "profile"
	}
	return fmt.Sprintf("PartitionMode(%d)", int(m))
}

// PartitionGroupsByCost assigns the groups, in topological (given) order,
// to p contiguous stages so that the maximum per-stage cost is minimized —
// the classic linear-partition dynamic program (the same bottleneck
// objective PipeDream's profiler-driven planner optimizes). costs[g] is
// group g's relative cost (any non-negative scale); every stage receives
// at least one group. Ties are broken deterministically: among splits with
// equal bottleneck cost, every stage boundary is placed as early as
// possible, so equal inputs always yield the identical partition.
func PartitionGroupsByCost(groups []ParamGroup, costs []float64, p int) (*Partition, error) {
	g := len(groups)
	if g == 0 {
		return nil, fmt.Errorf("pipeline: no parameter groups to partition")
	}
	if p < 1 || p > g {
		return nil, fmt.Errorf("pipeline: cannot split %d weight groups into %d stages", g, p)
	}
	if len(costs) != g {
		return nil, fmt.Errorf("pipeline: %d costs for %d weight groups", len(costs), g)
	}
	for i, c := range costs {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("pipeline: group %d (%s) has invalid cost %g", i, groups[i].Name, c)
		}
	}
	stageOf := boundaryDP(costs, p)
	part := &Partition{P: p, Groups: groups, StageOf: stageOf, Stages: make([][]*nn.Param, p)}
	for i, grp := range groups {
		part.Stages[stageOf[i]] = append(part.Stages[stageOf[i]], grp.Params...)
	}
	return part, nil
}

// boundaryDP solves the linear-partition problem: split costs[0..g) into p
// contiguous non-empty runs minimizing the maximum run sum. It returns the
// stage index of every group. dp[k][i] is the best achievable bottleneck
// using stages 0..k to cover groups 0..i; cut[k][i] is the first group of
// stage k in that solution. Scanning split points in ascending order with
// strict improvement makes tie-breaking deterministic (earliest cuts win).
func boundaryDP(costs []float64, p int) []int {
	g := len(costs)
	prefix := make([]float64, g+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	sum := func(lo, hi int) float64 { return prefix[hi] - prefix[lo] } // groups [lo, hi)

	dp := make([][]float64, p)
	cut := make([][]int, p)
	for k := range dp {
		dp[k] = make([]float64, g)
		cut[k] = make([]int, g)
	}
	for i := 0; i < g; i++ {
		dp[0][i] = sum(0, i+1)
	}
	for k := 1; k < p; k++ {
		for i := k; i < g; i++ {
			best := math.Inf(1)
			bestJ := k
			// Stage k covers groups [j, i]; stages 0..k−1 cover [0, j).
			for j := k; j <= i; j++ {
				b := math.Max(dp[k-1][j-1], sum(j, i+1))
				if b < best {
					best, bestJ = b, j
				}
			}
			dp[k][i] = best
			cut[k][i] = bestJ
		}
	}

	stageOf := make([]int, g)
	hi := g // one past the last group of the stage being reconstructed
	for k := p - 1; k >= 0; k-- {
		lo := 0
		if k > 0 {
			lo = cut[k][hi-1]
		}
		for i := lo; i < hi; i++ {
			stageOf[i] = k
		}
		hi = lo
	}
	return stageOf
}

// StageCosts sums the given per-group costs over the partition's stages.
func (pt *Partition) StageCosts(costs []float64) []float64 {
	out := make([]float64, pt.P)
	for g, s := range pt.StageOf {
		out[s] += costs[g]
	}
	return out
}

// Imbalance returns max/mean of the per-stage costs — 1.0 is a perfectly
// balanced pipeline; the bottleneck stage caps overlap at mean/max of the
// ideal throughput. A zero total reports 1.
func Imbalance(stageCosts []float64) float64 {
	max, total := 0.0, 0.0
	for _, c := range stageCosts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	return max / (total / float64(len(stageCosts)))
}

// Params returns all parameters in forward order.
func (pt *Partition) Params() []*nn.Param {
	var ps []*nn.Param
	for _, st := range pt.Stages {
		ps = append(ps, st...)
	}
	return ps
}

// StageSizes returns the scalar weight count per stage.
func (pt *Partition) StageSizes() []int {
	out := make([]int, pt.P)
	for s, ps := range pt.Stages {
		out[s] = nn.TotalSize(ps)
	}
	return out
}

// StageOfParam returns, for every parameter in forward order, its
// (0-indexed) stage.
func (pt *Partition) StageOfParam() []int {
	var out []int
	for s, ps := range pt.Stages {
		for range ps {
			out = append(out, s)
		}
	}
	return out
}

// FwdDelaySlots returns the forward delay in microbatch slots for
// 1-indexed stage i of a P-stage bubble-free pipeline: 2(P−i)+1 (Table 1).
func FwdDelaySlots(stage1, p int) int { return 2*(p-stage1) + 1 }

// FwdDelay returns the forward delay in minibatch (optimizer-step) units:
// (2(P−i)+1)/N for 1-indexed stage i with N microbatches per minibatch.
func FwdDelay(stage1, p, n int) float64 {
	return float64(FwdDelaySlots(stage1, p)) / float64(n)
}

// Clock converts global microbatch indices into the weight versions
// visible at each pipeline slot.
type Clock struct {
	P int // pipeline stages
	N int // microbatches per minibatch
}

// FwdVersion returns the number of optimizer updates committed at
// (1-indexed) stage i before the forward slot of global microbatch s.
func (c Clock) FwdVersion(s, stage1 int) int {
	num := s + 2*stage1 - 2*c.P - c.N
	if num < 0 {
		return 0
	}
	return num/c.N + 1
}

// BwdVersion returns the number of updates committed at any stage before
// the backward slot of global microbatch s (exclusive of the update this
// microbatch's own minibatch will commit): ⌊s/N⌋. It is stage-independent,
// which is why PipeMare's backward pass can simply read the live weights.
func (c Clock) BwdVersion(s int) int { return s / c.N }

// Minibatch returns the minibatch index of global microbatch s.
func (c Clock) Minibatch(s int) int { return s / c.N }

// FwdDelayUpdates returns the realized delay, in optimizer updates, between
// the weights read in the forward slot of microbatch s at stage i and the
// update that consumes its gradient (update index ⌊s/N⌋+1).
func (c Clock) FwdDelayUpdates(s, stage1 int) int {
	return c.Minibatch(s) + 1 - c.FwdVersion(s, stage1)
}

// VersionStore keeps per-stage snapshots of stage weights, indexed by
// update version. Version 0 is the initial weights; version v is the state
// after v optimizer updates. Old versions outside the pipeline's maximum
// lookback window are pruned automatically.
type VersionStore struct {
	stages [][]*nn.Param
	// snaps[stage][k] is the snapshot for version base+k.
	snaps [][][]*tensor.Tensor
	base  []int
	keep  int
}

// NewVersionStore snapshots the current weights of each stage as version 0.
// keep is the number of most recent versions retained (must cover the
// pipeline's maximum lookback, ⌈(2P+N)/N⌉+1).
func NewVersionStore(stages [][]*nn.Param, keep int) *VersionStore {
	if keep < 2 {
		keep = 2
	}
	vs := &VersionStore{stages: stages, keep: keep,
		snaps: make([][][]*tensor.Tensor, len(stages)), base: make([]int, len(stages))}
	for s := range stages {
		vs.push(s)
	}
	return vs
}

func (vs *VersionStore) push(stage int) {
	snap := make([]*tensor.Tensor, len(vs.stages[stage]))
	for i, p := range vs.stages[stage] {
		snap[i] = p.Data.Clone()
	}
	vs.snaps[stage] = append(vs.snaps[stage], snap)
	if len(vs.snaps[stage]) > vs.keep {
		drop := len(vs.snaps[stage]) - vs.keep
		vs.snaps[stage] = vs.snaps[stage][drop:]
		vs.base[stage] += drop
	}
}

// Push snapshots the current (just-updated) weights of every stage as the
// next version.
func (vs *VersionStore) Push() {
	for s := range vs.stages {
		vs.push(s)
	}
}

// PushStage snapshots one stage's current weights as its next version.
// Distinct stages may be pushed concurrently: each stage's ring is
// independent state.
func (vs *VersionStore) PushStage(stage int) { vs.push(stage) }

// Get returns the snapshot tensors of the given stage at the given
// version, clamped to the available window. The returned tensors are owned
// by the store and must not be mutated.
func (vs *VersionStore) Get(stage, version int) []*tensor.Tensor {
	k := version - vs.base[stage]
	if k < 0 {
		k = 0
	}
	if k >= len(vs.snaps[stage]) {
		k = len(vs.snaps[stage]) - 1
	}
	return vs.snaps[stage][k]
}

// Latest returns the most recent version number stored.
func (vs *VersionStore) Latest(stage int) int {
	return vs.base[stage] + len(vs.snaps[stage]) - 1
}

// History returns a stage's full version ring: the oldest retained
// version number and the live snapshots, oldest to newest. The tensors
// are owned by the store — checkpoint writers read, never mutate.
func (vs *VersionStore) History(stage int) (base int, snaps [][]*tensor.Tensor) {
	return vs.base[stage], vs.snaps[stage]
}

// RestoreStage replaces a stage's version ring wholesale with deep
// copies of snaps (versions base, base+1, ...) — the checkpoint-restore
// path. Restoring the ring, not just the latest weights, keeps
// historical-version installs after a resume bit-identical to the
// checkpointed run's.
func (vs *VersionStore) RestoreStage(stage, base int, snaps [][]*tensor.Tensor) {
	ring := make([][]*tensor.Tensor, len(snaps))
	for k, snap := range snaps {
		ring[k] = make([]*tensor.Tensor, len(snap))
		for i, t := range snap {
			ring[k][i] = t.Clone()
		}
	}
	vs.snaps[stage] = ring
	vs.base[stage] = base
}
