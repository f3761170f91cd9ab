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
	stageOf := make([]int, g)
	for i := range stageOf {
		stageOf[i] = i * p / g
	}
	return partition(groups, stageOf, p), nil
}

// PartitionByStageOf rebuilds a partition from another's StageOf — a
// leader's, which a follower receives over the wire — refusing a map that
// is not one: an entry per group, from stage 0 up, advancing at most one
// stage per group so every stage is contiguous and non-empty.
func PartitionByStageOf(groups []ParamGroup, stageOf []int) (*Partition, error) {
	if len(groups) == 0 || len(stageOf) != len(groups) {
		return nil, fmt.Errorf("pipeline: a stage map of %d groups for %d weight groups", len(stageOf), len(groups))
	}
	prev := 0
	for g, s := range stageOf {
		if s != prev && (g == 0 || s != prev+1) {
			return nil, fmt.Errorf("pipeline: stage map puts group %d on stage %d: stages must run 0, 1, … without a gap", g, s)
		}
		prev = s
	}
	return partition(groups, append([]int(nil), stageOf...), prev+1), nil
}

// partition assigns groups to p stages by a valid stage map.
func partition(groups []ParamGroup, stageOf []int, p int) *Partition {
	part := &Partition{P: p, Groups: groups, StageOf: stageOf, Stages: make([][]*nn.Param, p)}
	for i, grp := range groups {
		part.Stages[stageOf[i]] = append(part.Stages[stageOf[i]], grp.Params...)
	}
	return part
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
	return partition(groups, boundaryDP(costs, p), p), nil
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

// FwdDelaySlots returns the forward delay in microbatch slots for
// 1-indexed stage i of a P-stage bubble-free pipeline: 2(P−i)+1 (Table 1).
func FwdDelaySlots(stage1, p int) int { return 2*(p-stage1) + 1 }

// FwdDelay returns the forward delay in minibatch (optimizer-step) units:
// (2(P−i)+1)/N for 1-indexed stage i with N microbatches per minibatch.
func FwdDelay(stage1, p, n int) float64 {
	return float64(FwdDelaySlots(stage1, p)) / float64(n)
}

// Clock is the version rule: it names the weight version each slot of a
// global microbatch s reads, and is the only code that does — Table 1's
// forward versions (or Appendix E's, under Hogwild) and Appendix D's
// recompute versions — plus each stage's τ and the ring depth they need.
type Clock struct {
	P int // pipeline stages
	N int // microbatches per minibatch

	Hogwild  *Hogwild // when set, forward versions are Appendix E's draws from Seed
	Seed     int64
	Segments int // Appendix D's recompute segment count (0: no recompute)
}

// FwdVersion returns the version the forward slot of microbatch s reads at
// (1-indexed) stage i: the number of updates committed there before the
// slot, or under Hogwild max(k − Delay, 0) for the slot's minibatch k.
func (c Clock) FwdVersion(s, stage1 int) int {
	if h := c.Hogwild; h != nil {
		k := c.Minibatch(s)
		return max(k-h.Delay(c.Seed, k, stage1, c.P), 0)
	}
	return max(s+2*(stage1-c.P), 0) / c.N
}

// RecompVersion returns the version the recompute slot of microbatch s
// reads at (1-indexed) stage i, and its delay τ_recomp in minibatches: the
// slot runs 2(e−i)+1 slots before the gradient is applied, e the last
// stage of i's segment (Appendix D), so it is FwdVersion with e for P.
func (c Clock) RecompVersion(s, stage1 int) (int, float64) {
	e1 := c.segmentEnd(stage1)
	return max(s+2*(stage1-e1), 0) / c.N, float64(2*(e1-stage1)+1) / float64(c.N)
}

// segmentEnd returns the last stage of (1-indexed) stage i's recompute
// segment, 0-indexed stage j being in segment ⌊j·S/P⌋ of S = min(Segments, P).
func (c Clock) segmentEnd(stage1 int) int {
	segs := min(c.Segments, c.P)
	seg := (stage1 - 1) * segs / c.P
	return ((seg+1)*c.P + segs - 1) / segs
}

// Tau returns (1-indexed) stage i's forward delay in minibatch units, the
// one T1 reschedules by and T2 extrapolates over: Table 1's (2(P−i)+1)/N,
// or the mean of the Hogwild draw.
func (c Clock) Tau(stage1 int) float64 {
	if h := c.Hogwild; h != nil {
		return h.Mean(stage1, c.P)
	}
	return FwdDelay(stage1, c.P, c.N)
}

// Keep returns the versions (1-indexed) stage i's ring must hold: one
// more than the deepest lookback of any of its slots from the ⌊s/N⌋
// updates committed when microbatch s runs. A forward slot reads
// ⌊(s−2(P−i))/N⌋, at most ⌈2(P−i)/N⌉ behind, and a recompute slot reads
// the same with its segment's last stage for P, never further back; so
// ⌈2(P−i)/N⌉+1, which is 1 at the last stage. Under Hogwild every stage
// keeps TauMax+1.
func (c Clock) Keep(stage1 int) int {
	if h := c.Hogwild; h != nil {
		return h.TauMax + 1
	}
	return (2*(c.P-stage1)+c.N-1)/c.N + 1
}

// Minibatch returns the minibatch index of global microbatch s: ⌊s/N⌋,
// which is also the number of updates committed at any stage before its
// backward slot (exclusive of the update its own minibatch will commit).
// It is stage-independent, which is why PipeMare's backward pass can
// simply read the live weights.
func (c Clock) Minibatch(s int) int { return s / c.N }

// Hogwild is Appendix E's delay model, the Hogwild!-style alternative to
// the clock's Table 1 versions: every minibatch k, each stage i reads the
// weights of k − d, where d is drawn from an exponential distribution of
// mean Mean(i, P), floored and truncated at TauMax — the maximum-entropy
// delay model of Mitliagkas et al.
type Hogwild struct {
	TauMax    int     // truncation of the delay distribution, in updates
	MeanScale float64 // the first stage's mean delay is MeanScale·TauMax
}

// Mean returns the mean of stage i's (1-indexed) delay distribution:
// earlier stages see longer delays, scaled so the first stage's mean is
// MeanScale·TauMax and the last stage's MeanScale·TauMax/P.
func (h Hogwild) Mean(stage1, p int) float64 {
	return h.MeanScale * float64(h.TauMax) * float64(p-stage1+1) / float64(p)
}

// Delay draws minibatch k's delay at stage i (1-indexed) of P:
// min(⌊Exp(Mean(i, P))⌋, TauMax). The draw is a pure function of (seed,
// k, i) — a hash, not an RNG stream — so there is no generator state to
// checkpoint, hand off or share between the goroutines that read it.
func (h Hogwild) Delay(seed int64, k, stage1, p int) int {
	x := mix64(mix64(mix64(uint64(seed))^uint64(k)) ^ uint64(stage1))
	u := float64(x>>11) / (1 << 53) // uniform in [0, 1)
	return min(int(-math.Log1p(-u)*h.Mean(stage1, p)), h.TauMax)
}

// mix64 is one splitmix64 step (golden-ratio increment, then the
// finalizer): a bijection of uint64 whose every output bit depends on
// every input bit.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// VersionStore keeps per-stage snapshots of stage weights, indexed by
// update version. Version 0 is the initial weights; version v is the state
// after v optimizer updates. Stage s's ring holds its keep[s] most recent
// versions in keep[s] buffers it owns — the depth of that stage's own
// deepest lookback, Clock.Keep, so a late stage keeps fewer copies than
// an early one — and once the ring is full, a push copies the new version
// into the buffer of the oldest, which it evicts, so a steady-state push
// allocates nothing.
//
// The recycling rule: every reader of a version is done with it before
// the push that evicts it. The readers are a slot's install (the clock
// never names an evicted version, and Get panics on one), T2's pre-step
// weights (read before the stage's push), and the checkpoint, Resync and
// Handoff paths (History, between streams). A stage parameter still
// pointing its Data or Bwd at the buffer a push is about to overwrite
// breaks the rule, and the push panics, naming it.
type VersionStore struct {
	stages [][]*nn.Param
	// rings[stage][k] is the snapshot for version base[stage]+k.
	rings [][][]*tensor.Tensor
	base  []int
	keep  []int
}

// NewVersionStore snapshots the current weights of each stage as version
// 0, every ring keeping the same keep versions (at least 1).
func NewVersionStore(stages [][]*nn.Param, keep int) *VersionStore {
	depths := make([]int, len(stages))
	for s := range depths {
		depths[s] = keep
	}
	return NewStageVersionStore(stages, depths)
}

// NewStageVersionStore snapshots the current weights of each stage as
// version 0. Stage s's ring retains its keep[s] most recent versions (at
// least 1): that must cover the deepest lookback of the stage's slots,
// Clock.Keep(s+1).
func NewStageVersionStore(stages [][]*nn.Param, keep []int) *VersionStore {
	vs := &VersionStore{stages: stages, keep: make([]int, len(stages)),
		rings: make([][][]*tensor.Tensor, len(stages)), base: make([]int, len(stages))}
	for s := range stages {
		vs.keep[s] = max(keep[s], 1)
		vs.rings[s] = make([][]*tensor.Tensor, 0, vs.keep[s])
		vs.push(s)
	}
	return vs
}

// push snapshots the stage's current weights as its next version. While
// the ring holds fewer than its keep versions it clones them into a new
// buffer; after that it evicts the oldest version (and any beyond keep a
// restore left) and copies into the evicted buffer, first releasing the
// Wᵀ panel a parameter packed from it.
func (vs *VersionStore) push(stage int) {
	ring, params, keep := vs.rings[stage], vs.stages[stage], vs.keep[stage]
	if len(ring) < keep {
		buf := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			buf[i] = p.Data.Clone()
		}
		vs.rings[stage] = append(ring, buf)
		return
	}
	buf := ring[0]
	for i, p := range params {
		if p.Data == buf[i] || p.Bwd == buf[i] {
			panic(fmt.Sprintf("pipeline: stage %d: %v still reads version %d, which the push of version %d overwrites",
				stage, p, vs.base[stage], vs.Latest(stage)+1))
		}
	}
	for i, p := range params {
		p.ReleasePanel(buf[i])
		buf[i].CopyFrom(p.Data)
	}
	drop := len(ring) - keep + 1
	n := copy(ring, ring[drop:])
	ring[n] = buf
	clear(ring[n+1:]) // no evicted buffer stays reachable
	vs.rings[stage] = ring[:n+1]
	vs.base[stage] += drop
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
// version. The ring must hold that version: one outside it panics, naming
// the stage and the versions held, since a read the version rule did not
// provide for is a bug, not a version to substitute. The returned tensors
// are owned by the store, must not be mutated, and hold the version only
// until the push that evicts it, which overwrites them with a newer one.
func (vs *VersionStore) Get(stage, version int) []*tensor.Tensor {
	k := version - vs.base[stage]
	if k < 0 || k >= len(vs.rings[stage]) {
		panic(fmt.Sprintf("pipeline: stage %d ring holds versions %d..%d, not %d",
			stage, vs.base[stage], vs.Latest(stage), version))
	}
	return vs.rings[stage][k]
}

// Latest returns the most recent version number stored.
func (vs *VersionStore) Latest(stage int) int {
	return vs.base[stage] + len(vs.rings[stage]) - 1
}

// History returns a stage's full version ring: the oldest retained
// version number and the live snapshots, oldest to newest. The slice and
// the tensors are owned by the store and valid until the stage's next
// push, which recycles the oldest entry — checkpoint writers and handoffs
// read them between streams, and never mutate them.
func (vs *VersionStore) History(stage int) (base int, snaps [][]*tensor.Tensor) {
	return vs.base[stage], vs.rings[stage]
}

// RestoreStage replaces a stage's version ring wholesale with deep
// copies of snaps (versions base, base+1, ...) — the checkpoint-restore
// path. Restoring the ring, not just the latest weights, keeps
// historical-version installs after a resume bit-identical to the
// checkpointed run's. A ring of another length than the stage's keep
// converges to keep buffers over the pushes that follow.
func (vs *VersionStore) RestoreStage(stage, base int, snaps [][]*tensor.Tensor) {
	ring := make([][]*tensor.Tensor, len(snaps), max(len(snaps), vs.keep[stage]))
	for k, snap := range snaps {
		ring[k] = make([]*tensor.Tensor, len(snap))
		for i, t := range snap {
			ring[k][i] = t.Clone()
		}
	}
	vs.rings[stage] = ring
	vs.base[stage] = base
}
