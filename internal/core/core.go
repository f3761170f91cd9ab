// Package core implements the PipeMare training system (§3 of the paper):
// asynchronous pipeline-parallel SGD with Technique 1 (learning-rate
// rescheduling), Technique 2 (discrepancy correction) and Technique 3
// (synchronous warmup epochs), plus the two baselines it is compared
// against — GPipe-style synchronous training and PipeDream-style weight
// stashing — the recompute delay path of Appendix D, and Appendix E's
// Hogwild!-style stochastic delays (Config.Hogwild).
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
// it. A Task is a stage program: every slot executes its stage's op range,
// so engines can overlap microbatches across stages. Config.Engine selects
// the engine; nil means the serial Reference engine. Every trainer New
// builds leads a replica group — of one unless Replicas > 1 — and runs
// each minibatch through it (replica.Group.Minibatch, then Group.Commit):
// every replica — the leader with Config.Engine, each in-process follower
// with a Clone of it — drives its own share of the microbatches through
// its own engine, and the commit steps each stage once, one StepStage call
// per stage at the learning rates of the minibatch's epoch phase, spread
// over the engine's workers when they offer themselves.
//
// The package is laid out by role: this file holds the configuration, the
// Trainer and its construction; build.go the stage layout, the partition
// and follower construction; slots.go the slot surface, which installs
// the versions pipeline.Clock names; commit.go the commit surface and the
// minibatch loop with its recovery; member.go the replica-member surface;
// run.go the epoch loop; elastic.go and checkpoint.go the boundary hooks.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pipemare/internal/engine"
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
// The clone must have the same weight-group structure, parameter shapes
// and dtype; its own initialization does not matter, because the launch
// handoff replaces every tensor it trains from — and refuses, failing New,
// a clone whose stage layout differs.
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

	// Hogwild, when set, replaces Table 1's forward versions with Appendix
	// E's stochastic per-stage delays: every slot of minibatch k at stage i
	// reads version max(k − Hogwild.Delay(Seed, k, i, P), 0), T1 reschedules
	// by the draw's mean delays, and the method still decides the backward
	// weights (PipeDream: the same stale version). Not valid under GPipe or
	// with recompute, whose slots never read it, nor with more than one
	// replica, since a follower's Spec does not carry it.
	Hogwild *pipeline.Hogwild

	ClipNorm float64 // global gradient-norm clip (0 disables)
	LossCap  float64 // divergence threshold (0 = 1e6)
	Seed     int64

	// Replicas is the data-parallel replica count R (0 or 1 disables
	// replication). With R > 1 the task must implement Replicable: the
	// trainer owns R−1 follower trainers, each minibatch's microbatches
	// are split contiguously across the replicas, and after a
	// deterministic gradient all-reduce one shared optimizer step commits
	// sharded across them (ZeRO / PipeDream-2BW style, replica.Group.Commit):
	// each replica steps a contiguous shard of the pipeline stages and the
	// stepped state all-gathers back — bit-identical to the single-replica
	// curves. R must not exceed the microbatch count N.
	Replicas int

	// Engine selects the execution engine; nil means the single-goroutine
	// Reference engine. With Replicas > 1 it is the engine every replica
	// runs: the leader this one, each in-process follower a Clone of it.
	Engine engine.Engine

	// Followers optionally supplies the member surface for follower
	// replicas 1..Replicas-1 instead of building in-process follower
	// trainers — the hook the transport layer uses to connect remote
	// worker processes (pipemare.WithTransport). New calls it once per
	// follower, after the leader is fully built, with the hello spec a
	// remote side builds that follower from (its group position is
	// spec.Replica), and admits each member it returns with the state
	// handoff.
	Followers func(spec transport.Spec) (replica.Member, error)

	// FaultTolerant makes follower failures survivable: every replica
	// holds the full optimizer moment state, stage state carries the
	// moments through every gather and handoff, and a dead owner's shard
	// therefore survives on its peers — the precondition for deterministic
	// eviction. With Replicas > 1 it is implied by a checkpoint (a restore
	// redistributes the leader's full state), by Elastic and by straggler
	// demotion (admission reshuffles stage ownership).
	FaultTolerant bool

	// Elastic enables mid-run scale-up: the leader accepts joining worker
	// connections (Trainer.AcceptJoins), parks each until the next
	// minibatch boundary — the only point with no collective in flight —
	// and admits it with a live state handoff (masters, T2 state,
	// optimizer moments, version rings), growing the reduce tree
	// and commit plan to R+1. Requires Replicas >= 2 (a running replica
	// group to grow) and implies FaultTolerant.
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

	// Heartbeat is the remote-follower liveness cadence
	// (pipemare.WithHeartbeat), announced to dial-time followers and
	// joiners alike. New resolves a negative value — the facade's "not
	// set" — once fault tolerance is resolved: transport.DefaultHeartbeat
	// when the run is fault-tolerant, 0 (off) otherwise.
	Heartbeat time.Duration

	// CheckpointDir, when non-empty, makes the leader serialize its full
	// training state (masters, optimizer moments, T2 accumulators and the
	// per-stage weight-version rings, whose newest version is the step
	// count) to a CRC'd frame file in that directory every
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
	groupCosts []float64              // per-group costs the partitioner balanced
	clock      pipeline.Clock         // the version rule: which version each slot reads
	store      *pipeline.VersionStore // per-stage rings of clock.Keep() versions
	params     []*nn.Param            // in forward order (matches optimizer order)
	stageLo    []int                  // params[stageLo[s]:stageHi[s]] belong to stage s
	stageHi    []int
	stageLRs   [][]float64 // per-stage learning-rate scratch (StepStage)
	taus       []float64   // per-param τ_fwd in minibatch units (clock.Tau)
	masters    []*tensor.Tensor

	// T2 state: per-param velocity accumulator δ and the materialized
	// corrected backward weights (master − τ·δ). The pre-step weights δ
	// needs are the ring's newest version.
	delta     []*tensor.Tensor
	corrected []*tensor.Tensor
	gamma     []float64

	// Stage execution state: the task's program, the op ranges each stage
	// owns and the in-flight microbatch machines. The flows map is the only
	// trainer state shared between engine goroutines outside the per-stage
	// ownership contract, hence its own mutex.
	prog       *nn.Program
	opLo, opHi []int
	flowMu     sync.Mutex
	flows      map[int]*flight
	freeFlows  []*flight

	// Data-parallel replication state: a trainer New builds leads one
	// replica group over its follower members — none for a single replica,
	// else in-process follower trainers or remote proxies from
	// Config.Followers — and the group alone knows who is in the run from
	// then on. A follower (NewFollower) has no group and holds nothing of
	// its leader: state and rings arrive through the member surface.
	group *replica.Group

	// state is what each stage is, as one list per stage (layoutStages):
	// everything a checkpoint's stage section holds and restores. gather
	// is the prefix of it the replicas exchange (StageState /
	// ImportStageState): without the moments, unless fault-tolerant.
	state, gather [][]*tensor.Tensor

	observer Observer
	async    bool // the minibatch in flight's phase: delayed installs, T1 rates (SetAsync)
	diverged bool

	ckptWrites int   // checkpoints written
	ckptNs     int64 // cumulative wall time spent writing them

	// Elastic-membership state: parked joiner connections awaiting the
	// next minibatch boundary (fed by AcceptJoins goroutines, drained on
	// the run goroutine), the listeners and cancel that release them, and
	// the mid-run admission counters. joinMu guards closed, pending, joinLis
	// and joinCtx/joinCancel: Close may run beside the accept loops.
	joinMu     sync.Mutex
	closed     bool
	pending    []pendingJoin
	joinLis    []io.Closer
	joinCtx    context.Context
	joinCancel context.CancelFunc
	joins      int   // mid-run admissions: joiners and rejoining standbys
	handoffNs  int64 // their cumulative wall time, hello and handoff
}

// flight is one in-flight microbatch: its sample indices and its machine
// (registers, gradients, activation tape).
type flight struct {
	mb []int
	m  *nn.Machine
}

// New validates the configuration and builds a Trainer: the leader of a
// replica group, alone in it unless Replicas > 1. The optimizer must have
// been constructed over exactly the parameters of task.Groups() in order
// (use Params on the returned trainer's partition, or build the optimizer
// from the same group traversal).
func New(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config) (*Trainer, error) {
	t, err := newTrainer(task, opt, sched, cfg)
	if err != nil {
		return nil, err
	}
	// Every follower enters the way a mid-run joiner does: built or
	// connected from the spec of its position, parked as a standby, and
	// activated by the state handoff, so its own starting state never
	// matters. One that cannot enter fails New, and the group closes every
	// follower already connected: a remote worker would otherwise sit in
	// its serve loop until this process died.
	t.group = replica.NewGroup(host{t}, t.cfg.FaultTolerant)
	replicas := max(t.cfg.Replicas, 1)
	for r := 1; r < replicas; r++ {
		m, err := t.follower(r, replicas)
		if err == nil {
			err = t.enter(m)
		}
		if err != nil {
			t.group.Close()
			return nil, err
		}
	}
	return t, nil
}

// newTrainer is New without the replica group: all a follower is
// (NewFollower).
func newTrainer(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config) (*Trainer, error) {
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
	if h := cfg.Hogwild; h != nil {
		switch {
		case cfg.Method == GPipe || cfg.RecomputeSegments > 0:
			return nil, fmt.Errorf("core: Hogwild delays need an asynchronous method without recompute, got %v with %d recompute segments", cfg.Method, cfg.RecomputeSegments)
		case replicas > 1:
			// A dialled or joining follower is built from the Spec, which
			// carries no delay rule: it would read Table 1's versions.
			return nil, fmt.Errorf("core: Hogwild delays need a single replica, got %d", replicas)
		case h.TauMax < 0 || !(h.MeanScale >= 0):
			return nil, fmt.Errorf("core: Hogwild delays need TauMax >= 0 and MeanScale >= 0, got %+v", *h)
		}
	}
	eng := cfg.Engine
	if eng == nil {
		eng = engine.NewReference()
	}
	if _, ok := task.(Replicable); !ok && replicas > 1 && cfg.Followers == nil {
		return nil, fmt.Errorf("core: task %T does not implement Replicable; %d-replica training needs CloneTask (or a Followers factory)", task, replicas)
	}
	if cfg.CheckpointDir != "" && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.StragglerMisses > 0 && cfg.StragglerDeadline <= 0 {
		return nil, fmt.Errorf("core: straggler demotion needs a positive deadline (got %v for %d misses)", cfg.StragglerDeadline, cfg.StragglerMisses)
	}
	if cfg.Elastic && replicas < 2 {
		return nil, fmt.Errorf("core: elastic membership needs a running replica group to grow (Replicas >= 2), got %d", replicas)
	}
	if replicas > 1 && (cfg.CheckpointDir != "" || cfg.Elastic || cfg.StragglerMisses > 0) {
		// A restore redistributes the leader's full state, and admitting a
		// joiner or readmitting a straggler reshuffles stage ownership:
		// each needs the mirrored moments eviction does.
		cfg.FaultTolerant = true
	}
	if cfg.Heartbeat < 0 {
		cfg.Heartbeat = 0
		if cfg.FaultTolerant {
			cfg.Heartbeat = transport.DefaultHeartbeat
		}
	}
	if cfg.FaultTolerant && replicas > 1 && opt.StateRange() != optim.FullShard(len(opt.Params())) {
		// The caller's optimizer: the mirrored layout needs every moment.
		return nil, fmt.Errorf("core: fault-tolerant replication needs an optimizer holding the moment state of every parameter, got one over %+v", opt.StateRange())
	}
	t := &Trainer{
		task: task, opt: opt, sched: sched, cfg: cfg, eng: eng,
		part: part, groupCosts: costs,
		clock: pipeline.Clock{P: p, N: n, Hogwild: cfg.Hogwild, Seed: cfg.Seed, Segments: cfg.RecomputeSegments},
	}
	t.params = part.Params()
	t.stageLo = make([]int, p)
	t.stageHi = make([]int, p)
	t.stageLRs = make([][]float64, p)
	for s, ps := range part.Stages {
		t.stageLo[s] = len(t.taus)
		for range ps {
			t.taus = append(t.taus, t.clock.Tau(s+1))
		}
		t.stageHi[s] = len(t.taus)
		t.stageLRs[s] = make([]float64, len(ps))
	}
	t.store = pipeline.NewVersionStore(part.Stages, t.clock.Keep())
	t.masters = make([]*tensor.Tensor, len(t.params))
	for i, pm := range t.params {
		t.masters[i] = pm.Data
	}

	if cfg.T2D > 0 {
		t.delta = make([]*tensor.Tensor, len(t.params))
		t.corrected = make([]*tensor.Tensor, len(t.params))
		t.gamma = make([]float64, len(t.params))
		for i, pm := range t.params {
			t.delta[i] = tensor.NewLike(pm.Data)
			t.corrected[i] = pm.Data.Clone()
			// τ_bkwd = 0 for PipeMare, so γ_i = D^{1/τ_fwd,i}.
			t.gamma[i] = gammaFromD(cfg.T2D, t.taus[i])
		}
	}
	t.prog = task.Program()
	if t.opLo, t.opHi, err = t.prog.StageRanges(part.StageOf, p); err != nil {
		return nil, err
	}
	t.flows = make(map[int]*flight)
	t.layoutStages()
	return t, nil
}

// follower builds or connects follower r of replicas for the spec of its
// position: a NewFollower over a clone of the task, running a clone of the
// leader's engine, or whatever Config.Followers connects.
func (t *Trainer) follower(r, replicas int) (replica.Member, error) {
	spec := t.spec(r, replicas)
	if t.cfg.Followers == nil {
		cfg := t.cfg
		cfg.Engine = t.eng.Clone()
		return NewFollower(t.task.(Replicable).CloneTask(), t.opt, t.sched, cfg, spec)
	}
	m, err := t.cfg.Followers(spec)
	if err != nil {
		return nil, fmt.Errorf("core: connecting replica %d: %w", r, err)
	}
	if m == nil {
		return nil, fmt.Errorf("core: follower factory returned nil member for replica %d", r)
	}
	return m, nil
}

// Taus returns the per-parameter forward delays T1 reschedules by, in
// minibatch units: Table 1's, or the Hogwild draw's means.
func (t *Trainer) Taus() []float64 { return t.taus }

// Stages returns the number of pipeline stages.
func (t *Trainer) Stages() int { return t.clock.P }

// Microbatches returns N, the number of microbatches per minibatch.
func (t *Trainer) Microbatches() int { return t.clock.N }

// steps returns the optimizer steps committed so far — version v is the
// weights after v updates, so between commits it is every ring's newest
// version — and is the run's only clock: the epoch, the position within
// it, the microbatch base and T3's phase all derive from it.
func (t *Trainer) steps() int { return t.store.Latest(0) }

// perEpoch returns the minibatches per epoch (the short one is dropped).
func (t *Trainer) perEpoch() int { return t.task.NumTrain() / t.cfg.BatchSize }

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
func (t *Trainer) Replicas() int { return t.group.Replicas() }

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
	errs = append(errs, t.group.Close())
	return errors.Join(errs...)
}

// Observe registers an observer invoked after every completed epoch.
func (t *Trainer) Observe(fn Observer) { t.observer = fn }
