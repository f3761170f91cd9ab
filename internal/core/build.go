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
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// layoutStages enumerates what a pipeline stage is, once, in the order
// every mover of stage state — handoff, checkpoint, restore — ships it:
// the master weights, then the T2 discrepancy state (δ and the corrected
// backward weights) when T2 is on, then the optimizer's live moment
// tensors whenever it holds those of every parameter (a follower outside
// fault tolerance holds its shard's only). The lists alias the live
// tensors and are fixed after construction. The handoff view stops
// before the moments unless the run is fault-tolerant, which mirrors them
// onto every replica. The gather view leaves out the T2 state too: every
// importer computes it (ImportStageState).
func (t *Trainer) layoutStages() {
	t.state = make([][]*tensor.Tensor, t.clock.P)
	t.handoffState = make([][]*tensor.Tensor, t.clock.P)
	t.gather = make([][]*tensor.Tensor, t.clock.P)
	for s := range t.state {
		lo, hi := t.stageLo[s], t.stageHi[s]
		var moments []*tensor.Tensor
		if t.opt.StateRange() == optim.FullShard(len(t.params)) {
			for i := lo; i < hi; i++ {
				moments = append(moments, t.opt.MomentTensors(i)...)
			}
		}
		list := append([]*tensor.Tensor(nil), t.masters[lo:hi]...)
		if t.delta != nil {
			list = append(list, t.delta[lo:hi]...)
			list = append(list, t.corrected[lo:hi]...)
		}
		shared := len(list)
		t.state[s] = append(list, moments...)
		t.gather[s] = t.masters[lo:hi:hi]
		if t.cfg.FaultTolerant {
			shared = len(t.state[s])
			t.gather[s] = append(t.gather[s], moments...)
		}
		t.handoffState[s] = t.state[s][:shared:shared]
	}
}

// spec is the one builder of the hello spec: what the leader announces to
// the follower taking group position `position` of `replicas` — every
// initial follower, in process or dialled, and every joiner — with the
// recipe it is built from. The wire carries the position (a follower
// checks it against the replica count); the member's id is leader-side.
func (t *Trainer) spec(position, replicas int) transport.Spec {
	return transport.Spec{
		Replica: position, Replicas: replicas, Stages: t.clock.P,
		Heartbeat: t.cfg.Heartbeat,
		Recipe:    recipe{cfg: t.cfg, stageOf: t.part.StageOf, dtype: t.masters[0].DType()}.encode(),
	}
}

// arm applies the run's tracing and straggler policy to a remote member's
// proxy, after its handshake and before it enters the replica group.
func (t *Trainer) arm(m *transport.RemoteMember) {
	m.SetTracer(t.cfg.Trace) // nil-safe: a nil recorder leaves the wire track off
	m.SetStragglerMisses(t.cfg.StragglerMisses)
}

// buildPartition splits the task's weight groups into stages — by the
// leader's stage map for a follower, else into cfg's P under its partition
// mode — returning the partition and the per-group cost vector it balanced
// (the analytic estimate unless profiled, so stage imbalance is always
// reportable).
func buildPartition(task Task, groups []pipeline.ParamGroup, cfg Config, stageOf []int) (part *pipeline.Partition, costs []float64, err error) {
	p := cfg.Stages
	if p == 0 {
		p = len(groups)
	}
	costs = analyticGroupCosts(task, groups)
	switch {
	case stageOf != nil:
		part, err = pipeline.PartitionByStageOf(groups, stageOf)
	case cfg.Partition == pipeline.PartitionEven:
		part, err = pipeline.PartitionGroups(groups, p)
	case cfg.Partition == pipeline.PartitionProfile:
		costs = measuredGroupCosts(task, groups, cfg.MicrobatchSize)
		fallthrough
	case cfg.Partition == pipeline.PartitionCost:
		part, err = pipeline.PartitionGroupsByCost(groups, costs, p)
	default:
		err = fmt.Errorf("core: unknown partition mode %d", int(cfg.Partition))
	}
	return part, costs, err
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
// profile slightly different costs (and thus partitions); only the leader
// profiles, and its followers take its stage map from the hello.
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

// NewFollower builds follower spec.Replica of spec.Replicas, whether New
// clones it in process or a worker builds it for the leader's hello: a
// trainer over task with no replica group, whose chunks the leader's group
// (or the worker's serve loop) runs through eng (nil: Reference), and
// whose slots record into rec (nil: off) as replica spec.Replica. All else
// it trains by is the spec's recipe but opt and sched, which have no
// encoding: the partition is the leader's stage map, and a DTypeSettable
// task is cast to the leader's dtype before opt is cloned — every moment
// under fault tolerance, else its own stage shard's. Its starting weights
// do not matter: the leader's state handoff replaces them, and refuses a
// follower of another architecture.
func NewFollower(task Task, opt optim.Optimizer, sched optim.Schedule, eng engine.Engine, rec *trace.Recorder, spec transport.Spec) (replica.Local, error) {
	r := spec.Replica
	if r < 1 || r >= spec.Replicas {
		return nil, fmt.Errorf("core: follower replica %d out of range [1, %d)", r, spec.Replicas)
	}
	rc, err := decodeRecipe(spec.Recipe)
	if err != nil {
		return nil, err
	}
	if ds, ok := task.(DTypeSettable); ok {
		ds.SetDType(rc.dtype)
	}
	cfg := rc.cfg
	cfg.Engine, cfg.Trace, cfg.TraceReplica = eng, rec, r
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	// The fault-tolerant stage-state layout aliases the live moment
	// tensors, so the full-state optimizer must exist before the trainer is
	// built. A shard's bounds come from the stage partition, so the shard
	// optimizer is swapped in afterwards — safe, because without fault
	// tolerance no stage state aliases it.
	sh := optim.FullShard(len(ps))
	if !cfg.FaultTolerant {
		sh = optim.Shard{}
	}
	f, err := newTrainer(task, opt.CloneShard(ps, sh), sched, cfg, rc.stageOf)
	if err != nil {
		return nil, fmt.Errorf("core: building replica %d: %w", r, err)
	}
	if !cfg.FaultTolerant {
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
