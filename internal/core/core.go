// Package core implements the PipeMare training system (§3 of the paper):
// asynchronous pipeline-parallel SGD with Technique 1 (learning-rate
// rescheduling), Technique 2 (discrepancy correction) and Technique 3
// (synchronous warmup epochs), plus the two baselines it is compared
// against — GPipe-style synchronous training and PipeDream-style weight
// stashing — and the recompute delay path of Appendix D.
//
// The trainer simulates the pipeline at microbatch granularity using the
// timing model of package pipeline: for every microbatch it installs the
// stage-appropriate delayed weight version for the forward pass, a
// method-dependent version for the backward pass, runs real backprop
// through the task's model, and commits optimizer updates at minibatch
// boundaries — the same "queue of weights per pipeline stage" simulation
// the paper describes in Appendix C.4.
//
// How those per-slot operations are scheduled onto goroutines is delegated
// to a pluggable engine (package engine): the trainer implements
// engine.Host — stage-indexed install/restore/commit primitives plus
// per-stage forward/backward compute slots over in-flight microbatch
// machines — and the configured engine.Engine drives one minibatch at a
// time through it. Tasks implementing StageTask execute as true per-stage
// segments (so engines can overlap microbatches across stages); plain
// Tasks run monolithically inside the last stage's forward slot and stage
// 0's backward slot. Config.Engine selects the engine; nil means the
// serial Reference engine.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/engine/replicated"
	"pipemare/internal/metrics"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// Method selects the pipeline-parallel training method.
type Method int

// The three methods of Table 1.
const (
	// GPipe is synchronous training: no delay, pipeline bubbles.
	GPipe Method = iota
	// PipeDream stashes forward weights so τ_fwd = τ_bkwd = (2(P−i)+1)/N.
	PipeDream
	// PipeMare runs fully asynchronously: τ_fwd = (2(P−i)+1)/N, τ_bkwd = 0.
	PipeMare
)

// String names the method.
func (m Method) String() string {
	switch m {
	case GPipe:
		return "GPipe"
	case PipeDream:
		return "PipeDream"
	case PipeMare:
		return "PipeMare"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Task abstracts a model + loss over an indexed training set. Forward and
// Backward are split so the trainer can install different weight versions
// between them.
type Task interface {
	// Groups returns the model's parameters in topological order, grouped
	// so that weights that must share a stage stay together.
	Groups() []pipeline.ParamGroup
	// NumTrain returns the training-set size.
	NumTrain() int
	// Forward computes the mean loss on the given sample indices, caching
	// activations for Backward.
	Forward(idx []int) float64
	// Backward backpropagates from the last Forward, accumulating
	// parameter gradients.
	Backward()
	// EvalTest returns the task metric on the held-out set (accuracy in
	// percent, or BLEU) using the current forward weights.
	EvalTest() float64
}

// Replicable is a Task that can produce an architecturally identical
// fresh instance for data-parallel replication (Config.Replicas > 1).
// The clone must have the same weight-group structure and parameter
// shapes; its initial weights are overwritten with the leader's before
// training starts, so the clone's own initialization does not matter.
type Replicable interface {
	Task
	// CloneTask returns a fresh task instance over the same dataset with
	// the same architecture.
	CloneTask() Task
}

// StageTask is a Task whose network compiles to an op program aligned with
// its weight groups, so the trainer can execute it as per-stage segments:
// any stage partition of the groups induces contiguous op ranges, and the
// boundary activations live in per-microbatch machines. Tasks implementing
// StageTask let the concurrent engine overlap several microbatches across
// pipeline stages; plain Tasks fall back to monolithic execution (the
// whole forward runs in the last stage's slot, the whole backward in the
// first stage's).
type StageTask interface {
	Task
	// Program returns the compiled op program. Ops must be grouped in the
	// same order as Groups().
	Program() *nn.Program
	// BindMicro loads the indexed samples (inputs and labels) into a
	// freshly reset machine.
	BindMicro(m *nn.Machine, idx []int)
}

// Config configures a training run.
type Config struct {
	Method         Method
	Stages         int // P; 0 means one stage per weight group (fine-grained maximum)
	BatchSize      int
	MicrobatchSize int

	// Partition selects how weight groups are split into the P stages:
	// PartitionEven (the default, by group count), PartitionCost
	// (bottleneck-minimizing over the analytic per-group cost model), or
	// PartitionProfile (over measured per-group wall time from a
	// one-microbatch profiling pass at build time). The partition changes
	// each parameter's stage and therefore its delay τ_fwd — curves are
	// deterministic per mode, not across modes.
	Partition pipeline.PartitionMode

	// GroupCosts optionally supplies explicit per-group costs for the
	// cost/profile partition modes (e.g. from an offline profiler),
	// overriding the built-in estimators. Must match the task's group
	// count; requires a non-even partition mode.
	GroupCosts []float64

	// T1: learning-rate rescheduling annealing length in optimizer steps
	// (0 disables T1).
	T1K int
	// T2: discrepancy-correction decay hyperparameter D (0 disables T2).
	T2D float64
	// T3: number of initial synchronous (GPipe-style) warmup epochs.
	WarmupEpochs int

	// RecomputeSegments enables the Appendix D recompute delay path with
	// the given number of gradient-checkpoint segments (0 disables it).
	RecomputeSegments int

	ClipNorm float64 // global gradient-norm clip (0 disables)
	LossCap  float64 // divergence threshold (0 = 1e6)
	Seed     int64

	// Replicas is the data-parallel replica count R (0 or 1 disables
	// replication). With R > 1 the task must implement Replicable: the
	// trainer owns R−1 follower trainers, each minibatch's microbatches
	// are split contiguously across the replicas, and one shared
	// optimizer step commits on this (leader) trainer after a
	// deterministic gradient all-reduce — bit-identical to the
	// single-replica curves. R must not exceed the microbatch count N.
	Replicas int

	// ShardedStep selects whether the optimizer commit is sharded across
	// the data-parallel replicas (ZeRO / PipeDream-2BW style): each replica
	// owns a contiguous shard of the pipeline stages, holds the optimizer
	// moment state only for that shard, and steps it locally after the
	// gradient all-reduce; the stepped weights (and T2 state) then
	// all-gather back. Curves stay bit-identical to the leader-serial
	// commit. The default (ShardedStepAuto) shards whenever Replicas > 1
	// and the optimizer supports it (optim.ShardCloner).
	ShardedStep ShardedStepMode

	// Engine selects the execution engine; nil means the single-goroutine
	// Reference engine (or, with Replicas > 1, the replicated engine over
	// Reference inners). With Replicas > 1 the engine must be
	// replica-aware (replica.Aware).
	Engine engine.Engine

	// Followers optionally supplies the member surface for follower
	// replicas 1..Replicas-1 instead of building in-process follower
	// trainers — the hook the transport layer uses to connect remote
	// worker processes (pipemare.WithTransport). New calls it once per
	// follower, after the leader is fully built, with the resolved
	// replication environment.
	Followers func(r int, env ReplicaEnv) (replica.Member, error)

	// FaultTolerant makes follower failures survivable under the sharded
	// commit: every replica holds the full optimizer moment state
	// (optim.Stateful over the full parameter range), stage state carries
	// the moments through every gather and broadcast, and a dead owner's
	// shard therefore survives on its peers — the precondition for
	// deterministic eviction when the commit is sharded. Serial-commit
	// eviction needs no extra state and works regardless. Enabled
	// automatically when checkpointing is configured with a sharded
	// commit (the restore path needs the mirrored moments).
	FaultTolerant bool

	// Elastic enables mid-run scale-up: the leader accepts joining worker
	// connections (Trainer.AcceptJoins), parks each until the next
	// minibatch boundary — the only point with no collective in flight —
	// and admits it with a live state handoff (masters, T2 state,
	// optimizer moments, version rings, clocks), growing the reduce tree
	// and commit plan to R+1. Requires Replicas >= 2 (a running replica
	// group to grow). Under the sharded commit it implies FaultTolerant,
	// exactly as eviction does: admission reshuffles stage ownership.
	Elastic bool

	// StragglerDeadline and StragglerMisses configure straggler demotion
	// for remote followers: a follower whose collective reply misses
	// StragglerDeadline for StragglerMisses consecutive deadline windows
	// is demoted to standby — kept alive, excluded from the reduce tree
	// and commit plan, its microbatches redistributed — and automatically
	// readmitted through the join handoff path once its late reply drains.
	// Zero values disable demotion (the default: wait indefinitely, bar
	// heartbeat liveness).
	StragglerDeadline time.Duration
	StragglerMisses   int

	// Heartbeat is the resolved remote-follower liveness cadence
	// (pipemare.WithHeartbeat); the join path reuses it when welcoming
	// admitted members so joiners get the same liveness contract as
	// dial-time followers.
	Heartbeat time.Duration

	// CheckpointDir, when non-empty, makes the leader serialize its full
	// training state (masters, optimizer moments, T2 accumulators, the
	// per-stage weight-version rings, and the step/epoch/microbatch
	// clocks) to a CRC'd frame file in that directory every
	// CheckpointEvery optimizer steps. Restore with Trainer.RestoreLatest
	// (or pipemare.Restore). Followers never checkpoint.
	CheckpointDir   string
	CheckpointEvery int

	// Trace, when non-nil, is the event recorder every layer under this
	// trainer emits into (slot spans, commit phases, collectives, wire
	// round-trips, fault instants). The recorder only reads clocks and
	// appends to its own buffers, so curves stay bit-identical with
	// tracing on or off. TraceReplica is the replica index events from
	// this trainer are attributed to (0 = leader); New propagates the
	// recorder and the right index to in-process followers.
	Trace        *trace.Recorder
	TraceReplica int
}

// ReplicaEnv is what a Config.Followers factory needs to connect follower
// r: the leader's replica surface, and the handshake spec a remote side
// must agree with (Trainer.spec) — replica r's position, the resolved
// topology, the leader's clocks and the checksum of its initial state.
type ReplicaEnv struct {
	Leader replica.Leader
	Spec   transport.Spec
}

// ShardedStepMode selects the replica-sharded optimizer commit
// (Config.ShardedStep).
type ShardedStepMode int

const (
	// ShardedStepAuto shards the commit when Replicas > 1 and the
	// optimizer implements optim.ShardCloner.
	ShardedStepAuto ShardedStepMode = iota
	// ShardedStepOn requires the sharded commit; building the trainer
	// fails when Replicas < 2 or the optimizer cannot shard.
	ShardedStepOn
	// ShardedStepOff forces the leader-serial commit + full broadcast.
	ShardedStepOff
)

// Observer receives the curve after each completed epoch. epoch is the
// 1-based index of the entry just recorded — run.Loss[epoch-1] is always
// valid. When a single curve is threaded through repeated calls (RunInto),
// it is also the cumulative epoch count.
type Observer func(epoch int, run *metrics.Run)

// Trainer drives pipeline-parallel training of a Task.
type Trainer struct {
	task  Task
	opt   optim.Optimizer
	sched optim.Schedule
	cfg   Config
	eng   engine.Engine

	part       *pipeline.Partition
	groupCosts []float64 // per-group costs the partitioner balanced
	clock      pipeline.Clock
	store      *pipeline.VersionStore
	params     []*nn.Param // in forward order (matches optimizer order)
	stage1     []int       // 1-indexed stage per param
	stageLo    []int       // params[stageLo[s]:stageHi[s]] belong to stage s
	stageHi    []int
	stageLRs   [][]float64 // per-stage learning-rate scratch (StepStage)
	taus       []float64   // per-param τ_fwd in minibatch units
	masters    []*tensor.Tensor

	// T2 state: per-param velocity accumulator δ and the materialized
	// corrected backward weights (master − τ·δ).
	delta     []*tensor.Tensor
	corrected []*tensor.Tensor
	gamma     []float64
	prev      []*tensor.Tensor // master weights before the last update

	// Recompute state: segment end (1-indexed stage) per stage, and the
	// per-param recompute-corrected buffers.
	segEnd1 []int

	// Stage-split execution state (nil program for monolithic tasks): the
	// op ranges each stage owns and the in-flight microbatch machines. The
	// flows map is the only trainer state shared between engine goroutines
	// outside the per-stage ownership contract, hence its own mutex.
	stageTask  StageTask
	prog       *nn.Program
	opLo, opHi []int
	flowMu     sync.Mutex
	flows      map[int]*flight
	freeFlows  []*flight

	// Data-parallel replication state: a leader trainer builds one replica
	// group over its follower members — in-process follower trainers, or
	// remote proxies from Config.Followers — and the group alone knows who
	// is in the run from then on (nil for a single replica). A follower
	// trainer holds nothing of its leader: state and clocks arrive through
	// the member surface.
	group   *replica.Group
	sharded bool

	// state is what each stage is, as one list per stage (layoutStages):
	// everything a checkpoint's stage section holds and restores. gather
	// is the prefix of it the replicas exchange (StageState /
	// ImportStageState): without the moments, unless momentShare.
	state, gather [][]*tensor.Tensor

	// Fault-tolerance state: stateful is the optimizer's moment surface
	// when it spans the full parameter range (nil otherwise); momentShare
	// marks the fault-tolerant stage-state layout (the moments ride along
	// in the gather view, so gathers and broadcasts mirror them onto every
	// replica).
	stateful    optim.Stateful
	momentShare bool

	observer   Observer
	micro      int // global microbatch counter s
	step       int // optimizer step counter (minibatches committed)
	commitStep int // step index of the update being committed (BeginStep)
	epoch      int // cumulative epochs completed (persists across Run calls)
	diverged   bool
	resumeSkip int // full minibatches to skip in the first epoch after a restore
	closed     bool

	ckptWrites int   // checkpoints written
	ckptNs     int64 // cumulative wall time spent writing them

	// Elastic-membership state: parked joiner connections awaiting the
	// next minibatch boundary (fed by AcceptJoins goroutines, drained on
	// the run goroutine), the listeners and cancel that release them, and
	// the handoff clock.
	joinMu     sync.Mutex
	pending    []pendingJoin
	joinLis    []io.Closer
	joinCtx    context.Context
	joinCancel context.CancelFunc
	handoffNs  int64 // cumulative wall time spent in state handoffs
}

// flight is one in-flight microbatch: its sample indices and, for
// stage-split tasks, its machine (registers, gradients, activation tape).
type flight struct {
	mb []int
	m  *nn.Machine
}

// New validates the configuration and builds a Trainer. The optimizer must
// have been constructed over exactly the parameters of task.Groups() in
// order (use Params on the returned trainer's partition, or build the
// optimizer from the same group traversal).
func New(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config) (*Trainer, error) {
	groups := task.Groups()
	p := cfg.Stages
	if p == 0 {
		p = len(groups)
	}
	if cfg.BatchSize <= 0 || cfg.MicrobatchSize <= 0 || cfg.BatchSize%cfg.MicrobatchSize != 0 {
		return nil, fmt.Errorf("core: batch size %d must be a positive multiple of microbatch size %d", cfg.BatchSize, cfg.MicrobatchSize)
	}
	if task.NumTrain() < cfg.BatchSize {
		return nil, fmt.Errorf("core: training set (%d samples) smaller than one batch (%d)", task.NumTrain(), cfg.BatchSize)
	}
	part, costs, err := buildPartition(task, groups, p, cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.BatchSize / cfg.MicrobatchSize
	if cfg.LossCap == 0 {
		cfg.LossCap = 1e6
	}
	if got, want := len(opt.Params()), len(part.Params()); got != want {
		return nil, fmt.Errorf("core: optimizer has %d params, partition has %d", got, want)
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("core: replicas must be >= 0, got %d", cfg.Replicas)
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas > n {
		return nil, fmt.Errorf("core: %d replicas exceed the %d microbatches per minibatch (every replica needs at least one)", replicas, n)
	}
	eng := cfg.Engine
	if eng == nil {
		if replicas > 1 {
			eng = replicated.New()
		} else {
			eng = engine.NewReference()
		}
	}
	if replicas > 1 {
		if _, ok := eng.(replica.Aware); !ok {
			return nil, fmt.Errorf("core: engine %q is not replica-aware; use the replicated engine (internal/engine/replicated) to train %d replicas", eng.Name(), replicas)
		}
		if _, ok := task.(Replicable); !ok && cfg.Followers == nil {
			return nil, fmt.Errorf("core: task %T does not implement Replicable; %d-replica training needs CloneTask (or a Followers factory)", task, replicas)
		}
	}
	sharded, err := resolveSharded(cfg.ShardedStep, opt, replicas)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.CheckpointDir != "" && sharded {
		// Restoring a sharded run redistributes the leader's full state to
		// the followers, which needs the mirrored-moment layout.
		cfg.FaultTolerant = true
	}
	if cfg.StragglerMisses > 0 && cfg.StragglerDeadline <= 0 {
		return nil, fmt.Errorf("core: straggler demotion needs a positive deadline (got %v for %d misses)", cfg.StragglerDeadline, cfg.StragglerMisses)
	}
	if cfg.Elastic && replicas < 2 {
		return nil, fmt.Errorf("core: elastic membership needs a running replica group to grow (Replicas >= 2), got %d", replicas)
	}
	if sharded && (cfg.Elastic || cfg.StragglerMisses > 0) {
		// Admitting a joiner — or re-admitting a demoted straggler — under
		// the sharded commit reshuffles stage ownership, which needs the
		// mirrored-moment layout exactly as eviction does.
		cfg.FaultTolerant = true
	}
	// The fault-tolerant layout needs the full moment state resident on
	// this trainer: Stateful over the complete parameter range.
	var stateful optim.Stateful
	if st, ok := opt.(optim.Stateful); ok {
		if sc, ok := opt.(optim.ShardCloner); ok {
			if r := sc.StateRange(); r.Lo == 0 && r.Hi == len(opt.Params()) {
				stateful = st
			}
		}
	}
	momentShare := cfg.FaultTolerant && stateful != nil
	if cfg.FaultTolerant && replicas > 1 && stateful == nil {
		return nil, fmt.Errorf("core: fault-tolerant replication needs an optimizer exposing its full moment state (optim.Stateful + optim.ShardCloner over every parameter), got %T", opt)
	}
	t := &Trainer{
		task: task, opt: opt, sched: sched, cfg: cfg, eng: eng,
		part: part, groupCosts: costs,
		clock: pipeline.Clock{P: p, N: n},
	}
	t.stateful = stateful
	t.momentShare = momentShare
	t.params = part.Params()
	t.stageLo = make([]int, p)
	t.stageHi = make([]int, p)
	t.stageLRs = make([][]float64, p)
	for s, ps := range part.Stages {
		t.stageLo[s] = len(t.stage1)
		for range ps {
			t.stage1 = append(t.stage1, s+1)
		}
		t.stageHi[s] = len(t.stage1)
		t.stageLRs[s] = make([]float64, len(ps))
	}
	t.taus = make([]float64, len(t.params))
	for i := range t.params {
		t.taus[i] = pipeline.FwdDelay(t.stage1[i], p, n)
	}
	keep := (2*p+n)/n + 3
	t.store = pipeline.NewVersionStore(part.Stages, keep)
	t.masters = make([]*tensor.Tensor, len(t.params))
	for i, pm := range t.params {
		t.masters[i] = pm.Data
	}

	if cfg.T2D > 0 {
		t.delta = make([]*tensor.Tensor, len(t.params))
		t.corrected = make([]*tensor.Tensor, len(t.params))
		t.gamma = make([]float64, len(t.params))
		t.prev = make([]*tensor.Tensor, len(t.params))
		for i, pm := range t.params {
			t.delta[i] = tensor.NewLike(pm.Data)
			t.corrected[i] = pm.Data.Clone()
			t.prev[i] = pm.Data.Clone()
			// τ_bkwd = 0 for PipeMare, so γ_i = D^{1/τ_fwd,i}.
			t.gamma[i] = gammaFromD(cfg.T2D, t.taus[i])
		}
	}
	if cfg.RecomputeSegments > 0 {
		t.segEnd1 = segmentEnds(p, cfg.RecomputeSegments)
	}
	if st, ok := task.(StageTask); ok {
		prog := st.Program()
		lo, hi, err := prog.StageRanges(part.StageOf, p)
		if err != nil {
			return nil, err
		}
		t.stageTask, t.prog, t.opLo, t.opHi = st, prog, lo, hi
	}
	t.flows = make(map[int]*flight)
	t.sharded = sharded
	t.layoutStages()
	if replicas == 1 {
		return t, nil
	}
	env := ReplicaEnv{Leader: host{t}}
	if cfg.Followers != nil {
		env.Spec = t.spec(0, replicas, true) // one state checksum for all R−1 handshakes
	}
	var followers []replica.Member
	for r := 1; r < replicas; r++ {
		var m replica.Member
		if cfg.Followers != nil {
			env.Spec.Replica = r
			if m, err = cfg.Followers(r, env); err != nil {
				return nil, fmt.Errorf("core: connecting replica %d: %w", r, err)
			}
			if m == nil {
				return nil, fmt.Errorf("core: follower factory returned nil member for replica %d", r)
			}
			if rm, ok := m.(*transport.RemoteMember); ok {
				t.arm(rm)
			}
		} else {
			f, err := t.newFollower(task.(Replicable), r)
			if err != nil {
				return nil, err
			}
			m = host{f}
		}
		followers = append(followers, m)
	}
	t.group, err = replica.NewGroup(host{t}, followers, sharded, momentShare)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return t, nil
}

// layoutStages enumerates what a pipeline stage is, once, in the order
// every mover of stage state — gather, broadcast, handoff, checkpoint,
// restore — ships it: the master weights, then the T2 discrepancy state (δ
// and the corrected backward weights) when T2 is on, then the optimizer's
// live moment tensors whenever the full moment state is resident. The
// lists alias the live tensors and are fixed after construction. The
// gather view stops before the moments unless the fault-tolerant layout
// shares them.
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
		if t.stateful != nil {
			for i := lo; i < hi; i++ {
				list = append(list, t.stateful.MomentTensors(i)...)
			}
		}
		if t.momentShare {
			shared = len(list)
		}
		t.state[s], t.gather[s] = list, list[:shared:shared]
	}
}

// checkStage reports whether src can be copied over the stage's tensors
// dst, tensor for tensor: the count first, then each tensor's shape and
// dtype, naming the stage and the index. Importers run it before they
// touch anything live.
func checkStage(stage int, dst, src []*tensor.Tensor) error {
	if len(src) != len(dst) {
		return fmt.Errorf("stage %d state has %d tensors, want %d", stage, len(src), len(dst))
	}
	for k, d := range dst {
		if !d.SameShape(src[k]) {
			return fmt.Errorf("stage %d tensor %d shape %v, want %v", stage, k, src[k].Shape, d.Shape)
		}
		if d.DType() != src[k].DType() {
			return fmt.Errorf("stage %d tensor %d dtype %v, want %v", stage, k, src[k].DType(), d.DType())
		}
	}
	return nil
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
		Method: int(t.cfg.Method), T2: t.delta != nil, Sharded: t.sharded,
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

// resolveSharded resolves a ShardedStepMode against the optimizer and the
// replica count: whether the commit is sharded, or why the mode cannot be
// honoured.
func resolveSharded(mode ShardedStepMode, opt optim.Optimizer, replicas int) (bool, error) {
	_, can := opt.(optim.ShardCloner)
	switch mode {
	case ShardedStepAuto:
		return replicas > 1 && can, nil
	case ShardedStepOn:
		if replicas < 2 {
			return false, fmt.Errorf("core: the sharded optimizer step needs at least 2 replicas, got %d (it shards the commit across replicas)", replicas)
		}
		if !can {
			return false, fmt.Errorf("core: optimizer %T does not support state sharding (optim.ShardCloner); use ShardedStepOff for the leader-serial commit", opt)
		}
		return true, nil
	case ShardedStepOff:
		return false, nil
	}
	return false, fmt.Errorf("core: unknown sharded-step mode %d", int(mode))
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
			if st, ok := task.(StageTask); ok {
				costs = measuredGroupCosts(st, groups, cfg.MicrobatchSize)
			} else {
				// Monolithic tasks cannot attribute wall time to groups;
				// fall back to the analytic proxy.
				costs = analyticGroupCosts(task, groups)
			}
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
// the program's per-op FLOP/byte model for stage-split tasks, or scalar
// weight counts as a proxy for monolithic tasks.
func analyticGroupCosts(task Task, groups []pipeline.ParamGroup) []float64 {
	if st, ok := task.(StageTask); ok {
		cs := st.Program().GroupCosts(len(groups))
		out := make([]float64, len(cs))
		for i, c := range cs {
			out[i] = c.Weight()
		}
		return out
	}
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = float64(g.Size())
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
func measuredGroupCosts(st StageTask, groups []pipeline.ParamGroup, microbatchSize int) []float64 {
	const profileRuns = 3
	prog := st.Program()
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
		st.BindMicro(m, idx)
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
	return buildFollower(ct, t.opt, t.sched, fcfg, r, t.cfg.Replicas, t.sharded)
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
	sharded, err := resolveSharded(cfg.ShardedStep, opt, R)
	if err != nil {
		return nil, err
	}
	f, err := buildFollower(task, opt, sched, cfg, r, R, sharded)
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
	cfg.ShardedStep = ShardedStepOff
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
// every replica so any survivor can own any stage), the moments of its
// own stage shard under the plain sharded commit, and none under the
// leader-serial commit, where a follower never steps.
func buildFollower(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config, r, replicas int, sharded bool) (*Trainer, error) {
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	sc, shardable := opt.(optim.ShardCloner)
	fopt := optim.Optimizer(optim.NewSGDShard(ps, 0, 0, optim.Shard{}))
	if cfg.FaultTolerant {
		// The fault-tolerant stage-state layout aliases the live moment
		// tensors, so the real (full-state) optimizer must exist before the
		// trainer is built — it cannot be swapped in afterwards.
		if !shardable {
			return nil, fmt.Errorf("core: fault-tolerant follower needs a shardable optimizer (optim.ShardCloner), got %T", opt)
		}
		fopt = sc.CloneShard(ps, optim.FullShard(len(ps)))
	}
	f, err := New(task, fopt, sched, followerConfig(cfg, r))
	if err != nil {
		return nil, fmt.Errorf("core: building replica %d: %w", r, err)
	}
	if sharded && !cfg.FaultTolerant {
		// The shard geometry of the initial commit plan over all replicas,
		// mapped through this follower's (identical) stage boundaries.
		// Without the fault-tolerant layout no stage state aliases the
		// optimizer, so swapping it in after construction is safe.
		lo, hi := engine.NewCommitPlan(f.clock.P, replicas).Shard(r)
		sh := optim.Shard{}
		if lo != hi {
			sh = optim.Shard{Lo: f.stageLo[lo], Hi: f.stageHi[hi-1]}
		}
		f.opt = sc.CloneShard(ps, sh)
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

// Taus returns the per-parameter forward delays in minibatch units.
func (t *Trainer) Taus() []float64 { return t.taus }

// Stages returns the number of pipeline stages.
func (t *Trainer) Stages() int { return t.clock.P }

// Microbatches returns N, the number of microbatches per minibatch.
func (t *Trainer) Microbatches() int { return t.clock.N }

// Diverged reports whether training was aborted on a non-finite or
// capped loss.
func (t *Trainer) Diverged() bool { return t.diverged }

// Partition exposes the stage partition (for the memory model).
func (t *Trainer) Partition() *pipeline.Partition { return t.part }

// PartitionMode returns the configured partition mode.
func (t *Trainer) PartitionMode() pipeline.PartitionMode { return t.cfg.Partition }

// GroupCosts returns a copy of the per-group cost vector the partitioner
// balanced: the analytic estimate (even/cost modes), the measured wall
// times (profile mode), or the explicitly configured costs. For the cost
// and profile modes, feeding it back through Config.GroupCosts reproduces
// this trainer's partition exactly — the escape hatch for pinning a
// profiled partition. (An even-mode trainer's partition ignores costs by
// definition; the vector is informational there, for imbalance tracking.)
func (t *Trainer) GroupCosts() []float64 {
	return append([]float64(nil), t.groupCosts...)
}

// StageCosts returns the per-stage cost totals under the active partition.
func (t *Trainer) StageCosts() []float64 { return t.part.StageCosts(t.groupCosts) }

// StageImbalance returns max/mean of the per-stage costs — 1.0 is a
// perfectly balanced pipeline; the bottleneck stage caps the concurrent
// engine's overlap at mean/max of ideal.
func (t *Trainer) StageImbalance() float64 { return pipeline.Imbalance(t.StageCosts()) }

// Engine returns the execution engine driving this trainer.
func (t *Trainer) Engine() engine.Engine { return t.eng }

// Replicas returns the current data-parallel replica count R: the active
// members of the replica group (1 when replication is off).
func (t *Trainer) Replicas() int {
	if t.group == nil {
		return 1
	}
	return t.group.Replicas()
}

// Close releases the trainer's follower members: a remote transport
// proxy says goodbye to its worker process and closes the connection;
// in-process followers hold nothing to release. It also stops the join
// accept loops, releases parked joiners, and closes any demoted
// standbys the group still holds. Close is idempotent — the second and
// later calls return nil — and joins every member's close error rather
// than stopping at the first.
func (t *Trainer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	var errs []error
	if t.joinCancel != nil {
		t.joinCancel()
	}
	for _, lis := range t.joinLis {
		if err := lis.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	t.joinMu.Lock()
	pend := t.pending
	t.pending = nil
	t.joinMu.Unlock()
	for _, pj := range pend {
		pj.conn.Close()
	}
	if t.group != nil {
		errs = append(errs, t.group.Close())
	}
	return errors.Join(errs...)
}

// ShardedStep reports whether the optimizer commit is sharded across the
// replicas (always false for single-replica trainers).
func (t *Trainer) ShardedStep() bool { return t.sharded }

// Observe registers an observer invoked after every completed epoch.
func (t *Trainer) Observe(fn Observer) { t.observer = fn }

// synchronous reports whether the current epoch runs synchronously
// (GPipe method, or a T3 warmup epoch).
func (t *Trainer) synchronous() bool {
	return t.cfg.Method == GPipe || t.epoch < t.cfg.WarmupEpochs
}

// ratesInto fills out with the per-parameter learning rates of params
// [lo, hi) at optimizer step `step`: plain schedule while synchronous,
// T1-rescheduled once asynchronous (with the annealing clock starting at
// the async switch, so warmup epochs do not consume it). It is pure in the
// parameter range given the step index and the epoch phase — both frozen
// for the whole commit — so distinct stages may compute their rates
// concurrently (the stage-sharded StepStage commit).
func (t *Trainer) ratesInto(out []float64, step, lo, hi int) {
	base := t.sched.LR(step)
	if t.synchronous() || t.cfg.T1K <= 0 {
		for i := range out {
			out[i] = base
		}
		return
	}
	async := step - t.warmupSteps()
	if async < 0 {
		async = 0
	}
	// T1 uses the base schedule at the true step but anneals on async time.
	p := 1 - math.Min(float64(async)/float64(t.cfg.T1K), 1)
	for i := lo; i < hi; i++ {
		tau := t.taus[i]
		if tau < 1 {
			tau = 1
		}
		out[i-lo] = base / math.Pow(tau, p)
	}
}

// warmupSteps returns the number of optimizer steps spent in T3 warmup.
func (t *Trainer) warmupSteps() int {
	perEpoch := t.task.NumTrain() / t.cfg.BatchSize
	return t.cfg.WarmupEpochs * perEpoch
}

// recompVersion returns the number of updates committed at stage i
// (1-indexed) before the recompute slot of microbatch s for a segment
// ending at stage e1: the recompute of stage i runs 2(e−i)+1 slots before
// the gradient is applied.
func (t *Trainer) recompVersion(s, stage1, e1 int) int {
	num := s + 2*stage1 - 2*e1 - t.clock.N
	if num < 0 {
		return 0
	}
	return num/t.clock.N + 1
}

// host adapts the trainer to engine.Host without exporting the slot
// primitives on Trainer itself.
type host struct{ t *Trainer }

// Tracer implements trace.Carrier: engines, the replica layer and the
// commit plan discover the run's recorder (and which replica they are
// computing for) by type-asserting their Host against it.
func (h host) Tracer() (*trace.Recorder, int) { return h.t.cfg.Trace, h.t.cfg.TraceReplica }

// Stages returns P.
func (h host) Stages() int { return h.t.clock.P }

// Async reports whether the current epoch runs asynchronously.
func (h host) Async() bool { return !h.t.synchronous() }

// Recompute reports whether the Appendix D recompute path is enabled.
func (h host) Recompute() bool { return h.t.segEnd1 != nil }

// MicroBase returns the global microbatch counter for the minibatch start.
func (h host) MicroBase() int { return h.t.micro }

// InstallForward points the stage's parameters at the delayed snapshot
// visible at global microbatch s.
func (h host) InstallForward(s, stage int) {
	t := h.t
	v := t.clock.FwdVersion(s, stage+1)
	snap := t.store.Get(stage, v)
	for j, pm := range t.part.Stages[stage] {
		pm.Data = snap[j]
	}
}

// InstallBackward sets the stage's backward weights for microbatch s.
func (h host) InstallBackward(s, stage int) {
	t := h.t
	switch t.cfg.Method {
	case PipeDream:
		// Backward uses the stashed forward weights: Bwd stays nil so
		// BwdData falls back to the installed snapshot.
	case PipeMare:
		for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
			if t.corrected != nil {
				t.params[i].Bwd = t.corrected[i]
			} else {
				t.params[i].Bwd = t.masters[i]
			}
		}
	}
}

// InstallRecompute points the stage's parameters at the version its
// recompute pass would read (Appendix D): stage i in a segment ending at
// stage e reads weights delayed by 2(e−i)+1 slots, corrected by the T2
// accumulator when enabled.
func (h host) InstallRecompute(s, stage int) {
	t := h.t
	st1 := stage + 1
	e1 := t.segEnd1[stage]
	v := t.recompVersion(s, st1, e1)
	snap := t.store.Get(stage, v)
	for j, pm := range t.part.Stages[stage] {
		i := t.stageLo[stage] + j
		if t.delta != nil {
			// u_recomp = w_{t−τr} − (τ_fwd − τ_recomp)·δ.
			tauR := float64(2*(e1-st1)+1) / float64(t.clock.N)
			coef := t.taus[i] - tauR
			buf := tensor.NewLike(snap[j])
			if buf.DType() == tensor.Float32 {
				recompCorrect(tensor.F32(buf), tensor.F32(snap[j]), tensor.F32(t.delta[i]), coef)
			} else {
				recompCorrect(tensor.F64(buf), tensor.F64(snap[j]), tensor.F64(t.delta[i]), coef)
			}
			pm.Data = buf
		} else {
			pm.Data = snap[j]
		}
	}
}

// Restore points the stage's parameters back at the live master weights
// and clears the backward decoupling.
func (h host) Restore(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Data = t.masters[i]
		t.params[i].Bwd = nil
	}
}

// Splittable reports whether the task runs as per-stage segments.
func (h host) Splittable() bool { return h.t.prog != nil }

// BeginMicro opens microbatch s, acquiring an in-flight machine from the
// pool. Safe to call from any engine goroutine.
func (h host) BeginMicro(s int, mb []int) {
	t := h.t
	t.flowMu.Lock()
	var fl *flight
	if n := len(t.freeFlows); n > 0 {
		fl = t.freeFlows[n-1]
		t.freeFlows = t.freeFlows[:n-1]
	} else {
		fl = &flight{}
		if t.prog != nil {
			fl.m = nn.NewMachine(t.prog.NumRegs)
			// Slot machines allocate activations from their own tape
			// arena, which must match the model dtype. Read it from a
			// master: a scheduler worker's InstallForward may be swapping
			// params[0].Data at this moment, nothing ever swaps a master.
			if len(t.masters) > 0 {
				fl.m.Tape.SetDType(t.masters[0].DType())
			}
		}
	}
	fl.mb = mb
	t.flows[s] = fl
	t.flowMu.Unlock()
}

// flight returns microbatch s's in-flight state.
func (h host) flight(s int) *flight {
	t := h.t
	t.flowMu.Lock()
	fl := t.flows[s]
	t.flowMu.Unlock()
	if fl == nil {
		panic(fmt.Sprintf("core: microbatch %d has no in-flight state (missing BeginMicro)", s))
	}
	return fl
}

// StageForward runs the stage's forward slot for microbatch s. Stage-split
// tasks execute the stage's op range on the microbatch's machine (stage 0
// resets the machine and binds the samples, so a second climb restarts the
// forward pass — the recompute path); monolithic tasks run their whole
// forward in the last stage's slot, by which point every stage's weights
// have been installed.
func (h host) StageForward(s, stage int) float64 {
	t := h.t
	fl := h.flight(s)
	last := t.clock.P - 1
	if t.prog == nil {
		if stage == last {
			return t.task.Forward(fl.mb)
		}
		return 0
	}
	if stage == 0 {
		fl.m.ResetRun()
		t.stageTask.BindMicro(fl.m, fl.mb)
	}
	t.prog.ForwardRange(fl.m, t.opLo[stage], t.opHi[stage])
	if stage == last {
		return fl.m.Loss
	}
	return 0
}

// StageBackward runs the stage's backward slot for microbatch s.
// Monolithic tasks run their whole backward in stage 0's slot, by which
// point every stage's backward weights have been (re-)installed.
func (h host) StageBackward(s, stage int) {
	t := h.t
	fl := h.flight(s)
	if t.prog == nil {
		if stage == 0 {
			t.task.Backward()
		}
		return
	}
	t.prog.BackwardRange(fl.m, t.opLo[stage], t.opHi[stage])
}

// EndMicro closes microbatch s and recycles its machine.
func (h host) EndMicro(s int) {
	t := h.t
	t.flowMu.Lock()
	if fl := t.flows[s]; fl != nil {
		delete(t.flows, s)
		fl.mb = nil
		t.freeFlows = append(t.freeFlows, fl)
	}
	t.flowMu.Unlock()
}

// BadLoss reports a non-finite or capped loss.
func (h host) BadLoss(loss float64) bool {
	return math.IsNaN(loss) || loss > h.t.cfg.LossCap
}

// PrepareStage averages the stage's gradients over the minibatch,
// snapshots the stage's pre-step weights for T2, and returns the stage's
// gradient sum-of-squares for clipping.
func (h host) PrepareStage(stage, nMicro int) float64 {
	t := h.t
	n := float64(nMicro)
	sumSq := 0.0
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		g := t.params[i].Grad
		g.DivScalar(n)
		sumSq += g.SumSq()
		if t.prev != nil {
			t.prev[i].CopyFrom(t.params[i].Data)
		}
	}
	return sumSq
}

// ClipScale converts the global gradient sum-of-squares into the clip
// factor, mirroring nn.ClipGradNorm's edge cases.
func (h host) ClipScale(sumSq float64) float64 {
	max := h.t.cfg.ClipNorm
	norm := math.Sqrt(sumSq)
	if max <= 0 || norm <= max || norm == 0 || math.IsNaN(norm) {
		return 1
	}
	return max / norm
}

// ScaleStage multiplies the stage's gradients by the clip factor.
func (h host) ScaleStage(stage int, scale float64) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Grad.ScaleInPlace(scale)
	}
}

// BeginStep advances the step clocks for the update being committed: the
// trainer's step counter and the optimizer's (Adam bias-correction) clock.
// The per-stage rates are computed at the pre-advance step index, exactly
// as the old monolithic step did.
func (h host) BeginStep() {
	t := h.t
	t.commitStep = t.step
	t.step++
	t.opt.Advance()
}

// StepStage applies the optimizer update to the stage's parameter range
// with that range's (T1) learning rates. Ranges are disjoint and the rate
// computation is pure given the step clock BeginStep advanced, so distinct
// stages step concurrently without any cross-stage arithmetic.
func (h host) StepStage(stage int) {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	lrs := t.stageLRs[stage]
	t.ratesInto(lrs, t.commitStep, lo, hi)
	t.opt.StepRange(lo, hi, lrs)
}

// FinishStage zeroes the stage's gradients, updates the stage's T2
// accumulators, and pushes the stage's new weight version.
func (h host) FinishStage(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].ZeroGrad()
		if t.delta != nil {
			pm := t.params[i]
			if pm.Data.DType() == tensor.Float32 {
				t2Update(tensor.F32(t.delta[i]), tensor.F32(t.corrected[i]),
					tensor.F32(pm.Data), tensor.F32(t.prev[i]), t.gamma[i], t.taus[i])
			} else {
				t2Update(tensor.F64(t.delta[i]), tensor.F64(t.corrected[i]),
					tensor.F64(pm.Data), tensor.F64(t.prev[i]), t.gamma[i], t.taus[i])
			}
		}
	}
	t.store.PushStage(stage)
}

// t2Update advances one parameter's T2 discrepancy accumulator in the
// parameter's own dtype, then refreshes the corrected backward weights:
// δ ← γδ + (1−γ)(w − w_prev) and u_bkwd = w − (τ_fwd − τ_bkwd)·δ.
func t2Update[T tensor.Elem](d, c, cur, prev []T, gamma, tau float64) {
	g := T(gamma)
	tt := T(tau)
	for j := range d {
		d[j] = g*d[j] + (1-g)*(cur[j]-prev[j])
	}
	for j := range c {
		c[j] = cur[j] - tt*d[j]
	}
}

// recompCorrect forms the recompute-corrected weights u_recomp =
// w_snap − coef·δ in the parameter's dtype.
func recompCorrect[T tensor.Elem](buf, snap, delta []T, coef float64) {
	cf := T(coef)
	for k := range buf {
		buf[k] = snap[k] - cf*delta[k]
	}
}

// --- replica surface (replica.Leader / replica.Local) ---

// Group returns the trainer's replica group (replica.Leader): nil for a
// single-replica trainer, and for a follower.
func (h host) Group() *replica.Group { return h.t.group }

// Step returns the optimizer step clock (replica.Leader).
func (h host) Step() int { return h.t.step }

// Epoch returns the epoch clock (replica.Leader).
func (h host) Epoch() int { return h.t.epoch }

// SetStep aligns the step clock with the leader's (replica.Member) — the
// tail of a full-state push.
func (h host) SetStep(step int) { h.t.setStep(step) }

// setStep moves the optimizer step clock, keeping the optimizer's own
// update counter (AdamW bias correction) in lockstep when the full
// moment state is resident — the invariant a checkpoint restore or
// leader sync relies on.
func (t *Trainer) setStep(step int) {
	t.step = step
	if t.stateful != nil {
		t.stateful.SetClock(step)
	}
}

// SetEpoch aligns the epoch clock with the leader's (replica.Member), so
// the commit-phase learning rates (T1 annealing, T3 warmup phase) are
// computed from the same epoch everywhere.
func (h host) SetEpoch(epoch int) { h.t.epoch = epoch }

// TakeStageGrads moves the stage's accumulated gradients into bufs and
// zeroes the accumulators, so the next microbatch accumulates from zero
// again. Buffers are allocated on first use and recycled by the caller.
func (h host) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	t := h.t
	lo, hi := t.stageLo[stage], t.stageHi[stage]
	if bufs == nil {
		bufs = make([]*tensor.Tensor, hi-lo)
		for j := range bufs {
			bufs[j] = tensor.NewLike(t.params[lo+j].Grad)
		}
	}
	for j, i := 0, lo; i < hi; i, j = i+1, j+1 {
		bufs[j].CopyFrom(t.params[i].Grad)
		t.params[i].Grad.Zero()
	}
	return bufs
}

// FoldStageGrads adds exported buffers into the stage's accumulators with
// exactly one add per element — the arithmetic of the replica layer's
// tree reduction, matching the nn accumulation contract (nn.Param.Grad)
// so the fold is bit-identical to direct serial accumulation.
func (h host) FoldStageGrads(stage int, bufs []*tensor.Tensor) {
	t := h.t
	for j, i := 0, t.stageLo[stage]; i < t.stageHi[stage]; i, j = i+1, j+1 {
		tensor.AddInto(t.params[i].Grad, bufs[j])
	}
}

// SetStageGrads overwrites the stage's gradient accumulators with bufs —
// the scatter half of the sharded commit: the leader's fully reduced
// minibatch gradient moves to the stage's owner as a pure copy, no
// arithmetic, so the owner's PrepareStage sees bitwise the gradient the
// leader-serial commit would have averaged.
func (h host) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	t := h.t
	for j, i := 0, t.stageLo[stage]; i < t.stageHi[stage]; i, j = i+1, j+1 {
		t.params[i].Grad.CopyFrom(bufs[j])
	}
}

// StageState returns the stage's live post-step state tensors in the
// gather view of the stage layout (layoutStages). Callers must treat the
// slice and its tensors as read-only.
func (h host) StageState(stage int) []*tensor.Tensor {
	return h.t.gather[stage]
}

// ImportStageState copies a stage's post-step state from src (an owner's
// StageState) into this replica and pushes the stage's next weight
// version — the gather half of the sharded commit and one stage of a
// full-state push, mirroring the version push the owner's FinishStage did
// so every replica's version queue replays the same history. A src of
// another layout panics before anything is copied (the serve loop turns
// that into an error reply).
func (h host) ImportStageState(stage int, src []*tensor.Tensor) {
	t := h.t
	dst := t.gather[stage]
	if err := checkStage(stage, dst, src); err != nil {
		panic("core: " + err.Error())
	}
	for k, d := range dst {
		d.CopyFrom(src[k])
	}
	t.store.PushStage(stage)
}

// RestoreVersions replaces a stage's weight-version ring
// (replica.Member) — the restore path for the historical versions the
// asynchronous methods read.
func (h host) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	h.t.store.RestoreStage(stage, base, snaps)
}

// The trainer's host satisfies the full replica surface.
var _ replica.Leader = host{}

// Run trains for the given number of epochs under ctx, recording one entry
// per epoch. Epochs accumulate across calls: warmup (T3) and divergence
// state persist, so Run can be called repeatedly to continue training.
// Training stops early (without error) when a loss diverges — check
// Run.Diverged — and stops with ctx.Err() when the context is cancelled;
// the recorded curve up to that point is always returned.
func (t *Trainer) Run(ctx context.Context, epochs int) (*metrics.Run, error) {
	return t.run(ctx, epochs, nil)
}

// RunInto is Run appending into an existing curve (nil allocates one).
func (t *Trainer) RunInto(ctx context.Context, epochs int, run *metrics.Run) (*metrics.Run, error) {
	return t.run(ctx, epochs, run)
}

// ctlTrack returns this trainer's control track (epoch marks, eval,
// checkpoint and fault events) — nil, hence inert, when tracing is off.
// Its single writer is the goroutine driving run(): the engines'
// orchestration (including the replicated engine's fault instants) runs
// on that same goroutine.
func (t *Trainer) ctlTrack() *trace.Track {
	return t.cfg.Trace.Track(t.cfg.TraceReplica, trace.TidControl, "control")
}

func (t *Trainer) run(ctx context.Context, epochs int, run *metrics.Run) (*metrics.Run, error) {
	if run == nil {
		run = &metrics.Run{}
	}
	h := host{t}
	if lc, ok := t.eng.(engine.Lifecycle); ok {
		lc.Start(h)
		defer lc.Stop()
	}
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return run, err
		}
		epochLoss, batches := 0.0, 0
		// The batch order is a pure function of (seed, epoch) — no RNG
		// state survives between epochs — so a restored run replays the
		// interrupted epoch's order exactly.
		epochRng := rand.New(rand.NewSource(epochSeed(t.cfg.Seed, t.epoch)))
		skip := t.resumeSkip
		t.resumeSkip = 0
		for _, batch := range data.Batches(t.task.NumTrain(), t.cfg.BatchSize, epochRng) {
			if len(batch) < t.cfg.BatchSize {
				continue // keep N constant; drop the final short batch
			}
			if skip > 0 {
				// Minibatches already committed before the checkpoint this
				// run restored from; their state is baked in.
				skip--
				continue
			}
			micros := data.Microbatches(batch, t.cfg.MicrobatchSize)
			loss, err := t.eng.Minibatch(ctx, h, micros)
			if errors.Is(err, engine.ErrDiverged) {
				t.diverged = true
				// Drop the partial minibatch's gradient accumulation so a
				// later Run does not fold it into its first step.
				nn.ZeroGrads(t.params)
				run.Record(math.Inf(1), 0, nn.ParamNorm(t.params))
				run.Diverged = true
				return run, nil
			}
			if err != nil {
				// Cancelled mid-minibatch: drop the partial gradient
				// accumulation so a later Run starts from a clean slate.
				nn.ZeroGrads(t.params)
				return run, err
			}
			t.micro += len(micros)
			epochLoss += loss
			batches++
			if err := t.maybeCheckpoint(); err != nil {
				return run, err
			}
			// Minibatch-boundary admission: rejoin drained standbys and
			// admit parked joiners here, on the run goroutine, after the
			// checkpoint hook — so membership changes never race a
			// collective or a checkpoint write, and a post-join curve is a
			// pure function of the handed-off state.
			t.admitBoundary()
		}
		ctl := t.ctlTrack()
		t0 := t.cfg.Trace.Now()
		metric := t.task.EvalTest()
		ctl.Span(trace.NameEval, t0, -1, -1, 0)
		run.Record(epochLoss/float64(batches), metric, nn.ParamNorm(t.params))
		t.epoch++
		ctl.Instant(trace.NameEpoch, -1, -1, 0)
		if t.observer != nil {
			t.observer(run.Epochs(), run)
		}
	}
	return run, nil
}
