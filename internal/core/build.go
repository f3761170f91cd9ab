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

// spec is the one builder of the handshake spec: what the leader
// announces to the remote member taking group position `position` of
// `replicas` — in MsgHello with the checksum of the leader's current
// per-stage state, which a dial-time follower must reproduce, and in
// MsgWelcome without one, because a joiner's state is replaced wholesale
// by the handoff. The wire carries the position (a worker checks it
// against the replica count); the stable id the group gives the member is
// leader-side only.
func (t *Trainer) spec(position, replicas int, checksum bool) transport.Spec {
	s := transport.Spec{
		Replica: position, Replicas: replicas, Stages: t.clock.P,
		Method: int(t.cfg.Method), T2: t.delta != nil, Sharded: true,
		Step: t.step, Epoch: t.epoch,
		GroupCosts: t.groupCosts,
		FT:         t.cfg.FaultTolerant,
		Heartbeat:  t.cfg.Heartbeat,
	}
	if checksum {
		s.Checksum = transport.StateChecksum(host{t}, t.clock.P)
	}
	return s
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

// measuredGroupCosts is the profile mode's one-minibatch measurement pass:
// a warm forward+backward of one microbatch (machine pools and tape arenas
// reach steady state), then profileRuns timed passes accumulating per-op
// wall time onto the op's weight group. The gradients the backward halves
// accumulate are zeroed before training starts. Wall time is inherently
// noisy, so two builds may profile slightly different costs (and thus
// partitions); use Config.GroupCosts to pin a measured cost vector when
// exact reproducibility across trainers is required.
func measuredGroupCosts(task Task, groups []pipeline.ParamGroup, microbatchSize int) []float64 {
	const profileRuns = 3
	prog := task.Program()
	m := nn.NewMachine(prog.NumRegs)
	if len(groups) > 0 && len(groups[0].Params) > 0 {
		m.Tape.SetDType(groups[0].Params[0].Data.DType())
	}
	idx := make([]int, microbatchSize)
	for i := range idx {
		idx[i] = i
	}
	costs := make([]float64, len(groups))
	run := func(c []float64) {
		m.ResetRun()
		task.BindMicro(m, idx)
		if c == nil {
			prog.ForwardRange(m, 0, len(prog.Ops))
			prog.BackwardRange(m, 0, len(prog.Ops))
			return
		}
		prog.MeasureGroupCosts(m, c)
	}
	run(nil)
	for r := 0; r < profileRuns; r++ {
		run(costs)
	}
	var ps []*nn.Param
	for _, g := range groups {
		ps = append(ps, g.Params...)
	}
	nn.ZeroGrads(ps)
	return costs
}

// newFollower clones the leader's task, copies the leader's current
// (initial) weights into the clone — so the follower's version store
// seeds with the same version-0 snapshot — and builds the in-process
// follower trainer for replica r.
func (t *Trainer) newFollower(rep Replicable, r int) (*Trainer, error) {
	ct := rep.CloneTask()
	var cps []*nn.Param
	for _, g := range ct.Groups() {
		cps = append(cps, g.Params...)
	}
	if len(cps) != len(t.params) {
		return nil, fmt.Errorf("core: replica %d clone has %d params, leader has %d", r, len(cps), len(t.params))
	}
	for i, cp := range cps {
		if !cp.Data.SameShape(t.params[i].Data) {
			return nil, fmt.Errorf("core: replica %d clone param %d (%s) shape %v differs from leader's %v",
				r, i, cp.Name, cp.Data.Shape, t.params[i].Data.Shape)
		}
		cp.Data.CopyFrom(t.params[i].Data)
	}
	fcfg := t.cfg
	if fcfg.Partition != pipeline.PartitionEven {
		// Followers must land on the leader's exact partition: reuse its
		// (possibly measured) cost vector instead of re-estimating, so a
		// noisy profile pass cannot skew a follower's stage boundaries.
		fcfg.GroupCosts = t.groupCosts
	}
	return buildFollower(ct, t.opt, t.sched, fcfg, r, t.cfg.Replicas)
}

// NewFollower builds the standalone worker-process counterpart of the
// in-process followers New builds for Replicas > 1: a follower trainer
// for replica r of cfg.Replicas, returned as its local member surface,
// ready to be served to a remote leader (internal/transport). The caller
// supplies a task, optimizer and schedule constructed exactly as the
// leader's — same seeds, same options — which the transport handshake
// verifies end to end with a checksum over the initial per-stage state.
// Unlike the in-process path the task is used directly, not cloned: the
// worker process owns it.
func NewFollower(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config, r int) (replica.Local, error) {
	R := cfg.Replicas
	if R < 2 {
		return nil, fmt.Errorf("core: a follower needs Replicas >= 2, got %d", R)
	}
	if r < 1 || r >= R {
		return nil, fmt.Errorf("core: follower replica %d out of range [1, %d)", r, R)
	}
	f, err := buildFollower(task, opt, sched, cfg, r, R)
	if err != nil {
		return nil, err
	}
	return host{f}, nil
}

// followerConfig derives follower r's configuration from the run's: a
// follower is a single-replica trainer that never drives itself — its
// chunks run through the replicated engine's (or the serve loop's) inner
// engine — and leaves checkpointing, admission and straggler policy to
// the leader. The shared recorder attributes its events to replica r.
func followerConfig(cfg Config, r int) Config {
	cfg.Replicas = 0
	cfg.Engine = engine.NewReference()
	cfg.Followers = nil
	cfg.CheckpointDir = ""
	cfg.Elastic = false
	cfg.StragglerDeadline, cfg.StragglerMisses = 0, 0
	cfg.TraceReplica = r
	return cfg
}

// buildFollower builds the follower trainer for replica r of replicas
// over task, with the optimizer state its role needs, cloned from the
// run's optimizer opt: full moments under fault tolerance (mirrored onto
// every replica so any survivor can own any stage), else the moments of
// its own stage shard under the initial commit plan.
func buildFollower(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config, r, replicas int) (*Trainer, error) {
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	// The fault-tolerant stage-state layout aliases the live moment
	// tensors, so the full-state optimizer must exist before the trainer is
	// built. A shard's bounds come from the follower's own (identical)
	// stage partition, so the shard optimizer is swapped in afterwards —
	// safe, because without fault tolerance no stage state aliases it.
	sh := optim.FullShard(len(ps))
	if !cfg.FaultTolerant {
		sh = optim.Shard{}
	}
	f, err := New(task, opt.CloneShard(ps, sh), sched, followerConfig(cfg, r))
	if err != nil {
		return nil, fmt.Errorf("core: building replica %d: %w", r, err)
	}
	if !cfg.FaultTolerant {
		if lo, hi := engine.NewCommitPlan(f.clock.P, replicas).Shard(r); lo != hi {
			f.opt = opt.CloneShard(ps, optim.Shard{Lo: f.stageLo[lo], Hi: f.stageHi[hi-1]})
		}
	}
	return f, nil
}

// gammaFromD mirrors quad.GammaFromD for τ_bkwd = 0 without importing the
// theory package into the trainer.
func gammaFromD(d, tauFwd float64) float64 {
	if tauFwd <= 0 || d <= 0 {
		return 0
	}
	return math.Pow(d, 1/tauFwd)
}

// segmentEnds returns, for each 0-indexed stage, the 1-indexed last stage
// of its recompute segment, for segments of near-equal length.
func segmentEnds(p, segments int) []int {
	if segments > p {
		segments = p
	}
	ends := make([]int, p)
	for s := 0; s < p; s++ {
		seg := s * segments / p
		// Last stage of segment seg is the largest s' with s'·segments/p == seg.
		end := (seg+1)*p/segments - 1
		if end >= p {
			end = p - 1
		}
		ends[s] = end + 1 // 1-indexed
	}
	return ends
}
