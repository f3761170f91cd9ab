package core

import (
	"fmt"
	"math"

	"pipemare/internal/engine"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// layoutStages enumerates what a pipeline stage is, once, in the order
// every mover of stage state — gather, handoff, checkpoint, restore —
// ships it: the master weights, then the T2 discrepancy state (δ and the
// corrected backward weights) when T2 is on, then the optimizer's live
// moment tensors whenever it holds those of every parameter (a follower
// outside fault tolerance holds its shard's only). The
// lists alias the live tensors and are fixed after construction. The
// gather view stops before the moments unless the run is fault-tolerant,
// which mirrors them onto every replica.
func (t *Trainer) layoutStages() {
	t.state = make([][]*tensor.Tensor, t.clock.P)
	t.gather = make([][]*tensor.Tensor, t.clock.P)
	for s := range t.state {
		lo, hi := t.stageLo[s], t.stageHi[s]
		list := append([]*tensor.Tensor(nil), t.masters[lo:hi]...)
		if t.delta != nil {
			list = append(list, t.delta[lo:hi]...)
			list = append(list, t.corrected[lo:hi]...)
		}
		shared := len(list)
		if t.opt.StateRange() == optim.FullShard(len(t.params)) {
			for i := lo; i < hi; i++ {
				list = append(list, t.opt.MomentTensors(i)...)
			}
		}
		if t.cfg.FaultTolerant {
			shared = len(list)
		}
		t.state[s], t.gather[s] = list, list[:shared:shared]
	}
}

// spec is the one builder of the hello spec: what the leader announces to
// the follower taking group position `position` of `replicas` — every
// initial follower, in process or dialled, and every joiner. The wire
// carries the position (a follower checks it against the replica count);
// the stable id the group gives the member is leader-side only.
func (t *Trainer) spec(position, replicas int) transport.Spec {
	return transport.Spec{
		Replica: position, Replicas: replicas, Stages: t.clock.P,
		Method: int(t.cfg.Method), T2: t.delta != nil,
		GroupCosts: t.groupCosts,
		FT:         t.cfg.FaultTolerant,
		Heartbeat:  t.cfg.Heartbeat,
	}
}

// arm applies the run's tracing and straggler policy to a remote member's
// proxy, after its handshake and before it enters the replica group.
func (t *Trainer) arm(m *transport.RemoteMember) {
	m.SetTracer(t.cfg.Trace) // nil-safe: a nil recorder leaves the wire track off
	if t.cfg.StragglerMisses > 0 {
		m.SetStragglerDeadline(t.cfg.StragglerDeadline, t.cfg.StragglerMisses)
	}
}

// buildPartition splits the task's weight groups into p stages under the
// configured partition mode, returning the partition and the per-group
// cost vector it balanced (the analytic estimate for even mode, so stage
// imbalance is always reportable).
func buildPartition(task Task, groups []pipeline.ParamGroup, p int, cfg Config) (*pipeline.Partition, []float64, error) {
	switch cfg.Partition {
	case pipeline.PartitionEven:
		if cfg.GroupCosts != nil {
			return nil, nil, fmt.Errorf("core: explicit group costs require the cost or profile partition mode")
		}
		part, err := pipeline.PartitionGroups(groups, p)
		if err != nil {
			return nil, nil, err
		}
		return part, analyticGroupCosts(task, groups), nil
	case pipeline.PartitionCost, pipeline.PartitionProfile:
		var costs []float64
		switch {
		case cfg.GroupCosts != nil:
			if len(cfg.GroupCosts) != len(groups) {
				return nil, nil, fmt.Errorf("core: %d group costs for %d weight groups", len(cfg.GroupCosts), len(groups))
			}
			costs = append([]float64(nil), cfg.GroupCosts...)
		case cfg.Partition == pipeline.PartitionProfile:
			costs = measuredGroupCosts(task, groups, cfg.MicrobatchSize)
		default:
			costs = analyticGroupCosts(task, groups)
		}
		part, err := pipeline.PartitionGroupsByCost(groups, costs, p)
		if err != nil {
			return nil, nil, err
		}
		return part, costs, nil
	}
	return nil, nil, fmt.Errorf("core: unknown partition mode %d", int(cfg.Partition))
}

// analyticGroupCosts is the static cost estimate the cost mode balances:
// the program's per-op FLOP/byte model, summed per weight group.
func analyticGroupCosts(task Task, groups []pipeline.ParamGroup) []float64 {
	cs := task.Program().GroupCosts(len(groups))
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.Weight()
	}
	return out
}

// measuredGroupCosts is the profile mode's one-minibatch measurement:
// profileRuns forward+backward passes of one microbatch, each summing
// per-op wall time onto the op's weight group. A group's cost is its
// minimum over the passes, so neither the first pass (machine pools and
// tape arenas still filling) nor one preempted op can make a group look
// heavy. The gradients the backward halves accumulate are zeroed before
// training starts. Wall time is inherently noisy, so two builds may
// profile slightly different costs (and thus partitions); use
// Config.GroupCosts to pin a measured cost vector when exact
// reproducibility across trainers is required.
func measuredGroupCosts(task Task, groups []pipeline.ParamGroup, microbatchSize int) []float64 {
	const profileRuns = 4
	prog := task.Program()
	m := nn.NewMachine(prog.NumRegs)
	if len(groups) > 0 && len(groups[0].Params) > 0 {
		m.Tape.SetDType(groups[0].Params[0].Data.DType())
	}
	idx := make([]int, microbatchSize)
	for i := range idx {
		idx[i] = i
	}
	costs, pass := make([]float64, len(groups)), make([]float64, len(groups))
	for r := 0; r < profileRuns; r++ {
		clear(pass)
		m.ResetRun()
		task.BindMicro(m, idx)
		prog.MeasureGroupCosts(m, pass)
		for g, c := range pass {
			if r == 0 || c < costs[g] {
				costs[g] = c
			}
		}
	}
	var ps []*nn.Param
	for _, g := range groups {
		ps = append(ps, g.Params...)
	}
	nn.ZeroGrads(ps)
	return costs
}

// NewFollower builds follower spec.Replica of spec.Replicas: the one
// constructor of every follower, whether New clones it in process or a
// worker process builds it for the leader's hello. A follower is a
// trainer over task with no replica group: it never drives itself — the
// leader's group (or the worker's serve loop) runs its chunks through
// cfg.Engine — and leaves checkpointing and admission to the leader. cfg
// is the configuration on the follower's side: the leader's own in
// process, engine included, and the worker's options remotely; it must
// agree with the spec on method and T2, and the spec alone decides the
// replica count, fault tolerance and, for a cost or profile partition,
// the group costs. The optimizer state is
// cloned from opt: every moment under fault tolerance (mirrored onto every
// replica so any survivor can own any stage), else the moments of the
// follower's own stage shard under the initial commit plan. Its starting
// weights do not matter: it becomes active only through the leader's state
// handoff, which also refuses one of another stage layout or dtype.
func NewFollower(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config, spec transport.Spec) (replica.Local, error) {
	r := spec.Replica
	switch {
	case r < 1 || r >= spec.Replicas:
		return nil, fmt.Errorf("core: follower replica %d out of range [1, %d)", r, spec.Replicas)
	case int(cfg.Method) != spec.Method:
		return nil, fmt.Errorf("core: follower trains %v, leader %v", cfg.Method, Method(spec.Method))
	case (cfg.T2D > 0) != spec.T2:
		return nil, fmt.Errorf("core: follower T2 %t, leader T2 %t", cfg.T2D > 0, spec.T2)
	}
	cfg.Replicas = 0
	cfg.FaultTolerant = spec.FT
	cfg.CheckpointDir, cfg.Elastic = "", false
	cfg.TraceReplica = r
	if cfg.Partition != pipeline.PartitionEven && len(spec.GroupCosts) > 0 {
		// Land on the leader's exact stage boundaries: reuse its (possibly
		// measured) cost vector instead of re-estimating, so a noisy profile
		// pass cannot skew this follower's partition.
		cfg.GroupCosts = spec.GroupCosts
	}
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	// The fault-tolerant stage-state layout aliases the live moment
	// tensors, so the full-state optimizer must exist before the trainer is
	// built. A shard's bounds come from the follower's own stage partition,
	// so the shard optimizer is swapped in afterwards — safe, because
	// without fault tolerance no stage state aliases it.
	sh := optim.FullShard(len(ps))
	if !spec.FT {
		sh = optim.Shard{}
	}
	f, err := newTrainer(task, opt.CloneShard(ps, sh), sched, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: building replica %d: %w", r, err)
	}
	if !spec.FT {
		if lo, hi := engine.NewCommitPlan(f.clock.P, spec.Replicas).Shard(r); lo != hi {
			f.opt = opt.CloneShard(ps, optim.Shard{Lo: f.stageLo[lo], Hi: f.stageHi[hi-1]})
		}
	}
	return host{f}, nil
}

// gammaFromD mirrors quad.GammaFromD for τ_bkwd = 0 without importing the
// theory package into the trainer.
func gammaFromD(d, tauFwd float64) float64 {
	if tauFwd <= 0 || d <= 0 {
		return 0
	}
	return math.Pow(d, 1/tauFwd)
}
