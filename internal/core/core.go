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
// How a minibatch's slots are scheduled onto goroutines is delegated to a
// pluggable engine (package engine): the trainer implements engine.Host —
// per-stage forward/recompute/backward slots over in-flight microbatch
// machines, each installing the weight versions it reads — and the
// configured engine.Engine drives one minibatch's chains at a time through
// it; the trainer then commits the update (engine.Commit over its
// engine.Committer surface, or the replica group's commit). A Task is a
// stage program: every slot executes its stage's op range, so engines can
// overlap microbatches across stages. Config.Engine selects the engine;
// nil means the serial Reference engine.
//
// The package is laid out by role: this file holds the configuration, the
// Trainer and its construction; build.go the stage layout, the partition
// and follower construction; slots.go the slot surface and the version
// rule; commit.go the commit surface and the minibatch loop with its
// recovery; member.go the replica-member surface; run.go the epoch loop;
// elastic.go and checkpoint.go the boundary hooks.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

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

// Task abstracts a model + loss over an indexed training set as a stage
// program: the network compiles to an op program aligned with its weight
// groups, so any stage partition of the groups induces contiguous op
// ranges, each stage's forward and backward slot runs its own range on the
// weight version that slot reads, and the boundary activations live in
// per-microbatch machines.
type Task interface {
	// Groups returns the model's parameters in topological order, grouped
	// so that weights that must share a stage stay together.
	Groups() []pipeline.ParamGroup
	// NumTrain returns the training-set size.
	NumTrain() int
	// Program returns the compiled op program. Ops must be grouped in the
	// same order as Groups().
	Program() *nn.Program
	// BindMicro loads the indexed samples (inputs and labels) into a
	// freshly reset machine.
	BindMicro(m *nn.Machine, idx []int)
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

	// Stage execution state: the task's program, the op ranges each stage
	// owns and the in-flight microbatch machines. The flows map is the only
	// trainer state shared between engine goroutines outside the per-stage
	// ownership contract, hence its own mutex.
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
	micro      int  // global microbatch counter s
	async      bool // the chunk in flight installs delayed weights (SetAsync)
	step       int  // optimizer step counter (minibatches committed)
	epoch      int  // cumulative epochs completed (persists across Run calls)
	diverged   bool
	resumeSkip int // full minibatches to skip in the first epoch after a restore

	ckptWrites int   // checkpoints written
	ckptNs     int64 // cumulative wall time spent writing them

	// Elastic-membership state: parked joiner connections awaiting the
	// next minibatch boundary (fed by AcceptJoins goroutines, drained on
	// the run goroutine), the listeners and cancel that release them, and
	// the handoff clock. joinMu guards closed, pending, joinLis and
	// joinCtx/joinCancel: Close may run beside the accept loops.
	joinMu     sync.Mutex
	closed     bool
	pending    []pendingJoin
	joinLis    []io.Closer
	joinCtx    context.Context
	joinCancel context.CancelFunc
	handoffNs  int64 // cumulative wall time spent in state handoffs
}

// flight is one in-flight microbatch: its sample indices and its machine
// (registers, gradients, activation tape).
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
	t.prog = task.Program()
	if t.opLo, t.opHi, err = t.prog.StageRanges(part.StageOf, p); err != nil {
		return nil, err
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
	// A follower that cannot be connected (or a group that cannot be built)
	// must not strand the ones already connected: a remote worker would sit
	// in its serve loop until this process died.
	fail := func(err error) (*Trainer, error) {
		for _, m := range followers {
			if c, ok := m.(io.Closer); ok {
				c.Close()
			}
		}
		return nil, err
	}
	for r := 1; r < replicas; r++ {
		var m replica.Member
		if cfg.Followers != nil {
			env.Spec.Replica = r
			if m, err = cfg.Followers(r, env); err != nil {
				return fail(fmt.Errorf("core: connecting replica %d: %w", r, err))
			}
			if m == nil {
				return fail(fmt.Errorf("core: follower factory returned nil member for replica %d", r))
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
		return fail(fmt.Errorf("core: %w", err))
	}
	return t, nil
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
	t.joinMu.Lock()
	if t.closed {
		t.joinMu.Unlock()
		return nil
	}
	t.closed = true
	cancel, lis, pend := t.joinCancel, t.joinLis, t.pending
	t.pending = nil
	t.joinMu.Unlock()
	var errs []error
	if cancel != nil {
		cancel()
	}
	for _, l := range lis {
		if err := l.Close(); err != nil {
			errs = append(errs, err)
		}
	}
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
