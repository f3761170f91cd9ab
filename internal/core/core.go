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
// How the slots are scheduled onto goroutines is delegated to a pluggable
// engine (package engine): the trainer implements engine.Host —
// per-stage forward/recompute/backward slots over in-flight microbatch
// machines, each installing the weight versions it reads — and
// engine.Commit, the commit phases and the wait rule (Lag) that let a
// stream of minibatches flow through the pipeline without draining. A Task
// is a stage program: every slot executes its stage's op range, so engines
// can overlap microbatches across stages. Config.Engine selects the
// engine; nil means the serial Reference engine. Every trainer New builds
// leads a replica group — of one unless Replicas > 1 — and runs an
// epoch's minibatches through it (replica.Group.Stream) in streams that
// end where the run loop needs a drained pipeline: the epoch's end, a due
// checkpoint, and, for a replicated trainer, every minibatch boundary. A
// trainer alone commits inside the stream, one StepStage call per stage
// at the learning rates of the epoch's phase; a replicated one through the
// group's sharded commit. The engine reads MicroBase, Recompute and the
// phase once per stream.
//
// The package is laid out by role: this file holds the configuration, the
// Trainer and its construction; build.go the stage layout, the partition
// and follower construction; slots.go the slot surface, which installs
// the versions pipeline.Clock names; commit.go the commit surface and the
// stream loop with its recovery; member.go the replica-member surface;
// run.go the epoch loop and its stream cuts; elastic.go and checkpoint.go
// the boundary hooks.
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

// DTypeSettable is a Task that can cast its model state to another element
// type: a follower casts its task to the leader's dtype (NewFollower).
type DTypeSettable interface {
	SetDType(dt tensor.DType)
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
	// with recompute, whose slots never read it.
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
	// Reference engine. With Replicas > 1 every in-process replica runs
	// this one value: an engine holds no run resources.
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
	// optimizer moments, version rings), growing the chunk split
	// and commit plan to R+1. Requires Replicas >= 2 (a running replica
	// group to grow) and implies FaultTolerant.
	Elastic bool

	// StragglerMisses configures straggler demotion for remote followers:
	// a follower whose chunk reply misses StragglerMisses consecutive
	// heartbeat windows is demoted to standby — kept alive, excluded from
	// the chunk split and commit plan, its microbatches redistributed —
	// and automatically readmitted through the join handoff path once its
	// late reply drains. Zero disables demotion (the default: wait
	// indefinitely, bar heartbeat liveness).
	StragglerMisses int

	// Heartbeat is the remote-follower liveness cadence
	// (pipemare.WithHeartbeat), announced to dial-time followers and
	// joiners alike: the one window of a remote follower's reply wait.
	// Zero is the default, which New resolves once fault tolerance is
	// known: transport.DefaultHeartbeat when the run is fault-tolerant,
	// off otherwise.
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

	part       *pipeline.Partition
	groupCosts []float64              // per-group costs the partitioner balanced
	clock      pipeline.Clock         // the version rule: which version each slot reads
	store      *pipeline.VersionStore // stage s's ring holds clock.Keep(s+1) versions (GPipe: 1)
	params     []*nn.Param            // in forward order (matches optimizer order)
	stageLo    []int                  // params[stageLo[s]:stageHi[s]] belong to stage s
	stageHi    []int
	stageLRs   [][]float64 // per-stage learning-rate scratch (StepStage)
	taus       []float64   // per-param τ_fwd in minibatch units (clock.Tau)
	masters    []*tensor.Tensor

	// T2 state: per-param velocity accumulator δ and the materialized
	// corrected backward weights (master − τ·δ). The pre-step weights δ
	// needs are the ring's newest version. With the recompute path on,
	// recomp[i] is the buffer install writes params[i]'s T2-corrected
	// recompute weights into: one per parameter serves every slot, because
	// a stage's slots never overlap and no layer keeps Data on its tape.
	delta     []*tensor.Tensor
	corrected []*tensor.Tensor
	recomp    []*tensor.Tensor
	gamma     []float64

	// Stage execution state: the task's program, the op ranges each stage
	// owns and the in-flight microbatch machines: flows[s mod N] is
	// microbatch s while it is in flight (host.flight). The flows slots and the free
	// pool are the only trainer state shared between engine goroutines
	// outside the per-stage ownership contract: BeginMicro and EndMicro
	// change them under flowMu, and a slot reads its microbatch's entry
	// without it, ordered after BeginMicro and before EndMicro by the
	// engine.
	prog       *nn.Program
	opLo, opHi []int
	flowMu     sync.Mutex
	flows      []*flight
	freeFlows  []*flight

	// Data-parallel replication state: a trainer New builds leads one
	// replica group over its follower members — none for a single replica,
	// else in-process follower trainers or remote proxies from
	// Config.Followers — and the group alone knows who is in the run from
	// then on. A follower (NewFollower) has no group and holds nothing of
	// its leader: state and rings arrive through the member surface.
	group *replica.Group

	// state is what each stage is, as one list per stage (layoutStages):
	// everything a checkpoint's stage section holds and restores.
	// handoffState is the prefix of it a handoff ships (HandoffState / SetStageState):
	// without the moments, unless fault-tolerant. gather is what the
	// commit's gather ships (StageState / ImportStageState): the masters,
	// and the moments under fault tolerance.
	state, handoffState, gather [][]*tensor.Tensor

	observer Observer
	async    bool // the stream's phase: delayed installs, T1 rates (SetAsync)
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

// flight is one in-flight microbatch: its global counter, its sample
// indices and its machine (registers, gradients, activation tape).
type flight struct {
	s  int
	mb []int
	m  *nn.Machine
}

// New builds a Trainer: the leader of a replica group, alone in it unless
// Replicas > 1. It refuses the first out-of-range cfg field by name — the
// one rule, Config.check, that every follower's recipe meets too — and a
// cfg the task, optimizer or partition cannot run. The optimizer must have
// been constructed over exactly the parameters of task.Groups() in order
// (use Params on the returned trainer's partition, or build the optimizer
// from the same group traversal).
func New(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config) (*Trainer, error) {
	t, err := newTrainer(task, opt, sched, cfg, nil)
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
	for r := 1; r < t.cfg.Replicas; r++ {
		m, err := t.follower(r, t.cfg.Replicas)
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

// check is the one rule for a run's values, leaders (New) and followers
// (NewFollower, over the leader's decoded recipe) alike: it refuses the
// first out-of-range field by name and returns c with the defaults a zero
// leaves open filled in. Refusals that need the task, the optimizer or the
// partition mode stay with newTrainer and buildPartition.
func (c Config) check() (Config, error) {
	var err error
	switch h := c.Hogwild; {
	case c.Method < GPipe || c.Method > PipeMare:
		err = fmt.Errorf("unknown method %d", int(c.Method))
	case c.Stages < 0:
		err = fmt.Errorf("stages must be >= 0, got %d", c.Stages)
	case c.BatchSize <= 0 || c.MicrobatchSize <= 0 || c.BatchSize%c.MicrobatchSize != 0:
		err = fmt.Errorf("batch size %d must be a positive multiple of microbatch size %d", c.BatchSize, c.MicrobatchSize)
	case c.T1K < 0:
		err = fmt.Errorf("T1 annealing steps must be >= 0, got %d", c.T1K)
	case !(c.T2D >= 0 && c.T2D < 1):
		err = fmt.Errorf("T2 decay D must be in [0, 1), got %g", c.T2D)
	case c.WarmupEpochs < 0:
		err = fmt.Errorf("warmup epochs must be >= 0, got %d", c.WarmupEpochs)
	case c.RecomputeSegments < 0:
		err = fmt.Errorf("recompute segments must be >= 0, got %d", c.RecomputeSegments)
	case !(c.ClipNorm >= 0):
		err = fmt.Errorf("clip norm must be >= 0, got %g", c.ClipNorm)
	case !(c.LossCap >= 0):
		err = fmt.Errorf("loss cap must be >= 0 (0: 1e6), got %g", c.LossCap)
	case c.Replicas < 0:
		err = fmt.Errorf("replicas must be >= 0, got %d", c.Replicas)
	case c.Replicas > c.BatchSize/c.MicrobatchSize:
		err = fmt.Errorf("%d replicas exceed the %d microbatches per minibatch (every replica needs at least one)", c.Replicas, c.BatchSize/c.MicrobatchSize)
	case h != nil && (c.Method == GPipe || c.RecomputeSegments > 0):
		err = fmt.Errorf("Hogwild delays need an asynchronous method without recompute, got %v with %d recompute segments", c.Method, c.RecomputeSegments)
	case h != nil && (h.TauMax < 0 || !(h.MeanScale >= 0)):
		err = fmt.Errorf("Hogwild delays need TauMax >= 0 and MeanScale >= 0, got %+v", *h)
	case c.CheckpointEvery < 0:
		err = fmt.Errorf("checkpoint cadence must be >= 0, got %d", c.CheckpointEvery)
	case c.StragglerMisses < 0:
		err = fmt.Errorf("straggler misses must be >= 0, got %d", c.StragglerMisses)
	case c.Heartbeat < 0:
		err = fmt.Errorf("heartbeat must be >= 0, got %v", c.Heartbeat)
	case c.Elastic && c.Replicas < 2:
		err = fmt.Errorf("elastic membership needs a running replica group to grow (Replicas >= 2), got %d", c.Replicas)
	}
	if err != nil {
		return c, fmt.Errorf("core: %w", err)
	}
	c.Replicas = max(c.Replicas, 1)
	if c.LossCap == 0 {
		c.LossCap = 1e6
	}
	if c.Engine == nil {
		c.Engine = engine.NewReference()
	}
	if c.CheckpointDir != "" && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	if c.Replicas > 1 && (c.CheckpointDir != "" || c.Elastic || c.StragglerMisses > 0) {
		// A restore redistributes the leader's full state, and admitting a
		// joiner or readmitting a straggler reshuffles stage ownership:
		// each needs the mirrored moments eviction does.
		c.FaultTolerant = true
	}
	if c.Heartbeat == 0 && c.FaultTolerant {
		c.Heartbeat = transport.DefaultHeartbeat
	}
	return c, nil
}

// newTrainer is New without the replica group: all a follower is
// (NewFollower), which passes its leader's stage map.
func newTrainer(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config, stageOf []int) (*Trainer, error) {
	cfg, err := cfg.check()
	if err != nil {
		return nil, err
	}
	groups := task.Groups()
	if task.NumTrain() < cfg.BatchSize {
		return nil, fmt.Errorf("core: training set (%d samples) smaller than one batch (%d)", task.NumTrain(), cfg.BatchSize)
	}
	part, costs, err := buildPartition(task, groups, cfg, stageOf)
	if err != nil {
		return nil, err
	}
	p := part.P
	n := cfg.BatchSize / cfg.MicrobatchSize
	if got, want := len(opt.Params()), len(part.Params()); got != want {
		return nil, fmt.Errorf("core: optimizer has %d params, partition has %d", got, want)
	}
	if _, ok := task.(Replicable); !ok && cfg.Replicas > 1 && cfg.Followers == nil {
		return nil, fmt.Errorf("core: task %T does not implement Replicable; %d-replica training needs CloneTask (or a Followers factory)", task, cfg.Replicas)
	}
	if cfg.FaultTolerant && cfg.Replicas > 1 && opt.StateRange() != optim.FullShard(len(opt.Params())) {
		// The caller's optimizer: the mirrored layout needs every moment.
		return nil, fmt.Errorf("core: fault-tolerant replication needs an optimizer holding the moment state of every parameter, got one over %+v", opt.StateRange())
	}
	t := &Trainer{
		task: task, opt: opt, sched: sched, cfg: cfg,
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
	keep := make([]int, p)
	for s := range keep {
		keep[s] = 1 // GPipe never installs a version: it reads the newest
		if cfg.Method != GPipe {
			keep[s] = t.clock.Keep(s + 1)
		}
	}
	t.store = pipeline.NewStageVersionStore(part.Stages, keep)
	t.masters = make([]*tensor.Tensor, len(t.params))
	for i, pm := range t.params {
		t.masters[i] = pm.Data
	}

	if cfg.T2D > 0 {
		t.delta = make([]*tensor.Tensor, len(t.params))
		t.corrected = make([]*tensor.Tensor, len(t.params))
		t.gamma = make([]float64, len(t.params))
		if t.clock.Segments > 0 {
			t.recomp = make([]*tensor.Tensor, len(t.params))
		}
		for i, pm := range t.params {
			t.delta[i] = tensor.NewLike(pm.Data)
			t.corrected[i] = pm.Data.Clone()
			if t.recomp != nil {
				t.recomp[i] = tensor.NewLike(pm.Data)
			}
			// τ_bkwd = 0 for PipeMare, so γ_i = D^{1/τ_fwd,i}.
			t.gamma[i] = gammaFromD(cfg.T2D, t.taus[i])
		}
	}
	t.prog = task.Program()
	if t.opLo, t.opHi, err = t.prog.StageRanges(part.StageOf, p); err != nil {
		return nil, err
	}
	t.flows = make([]*flight, n)
	t.layoutStages()
	return t, nil
}

// follower builds or connects follower r of replicas for the spec of its
// position: a NewFollower over a clone of the task, running the leader's
// engine, or whatever Config.Followers connects.
func (t *Trainer) follower(r, replicas int) (replica.Member, error) {
	spec := t.spec(r, replicas)
	if t.cfg.Followers == nil {
		return NewFollower(t.task.(Replicable).CloneTask(), t.opt, t.sched, t.cfg.Engine, t.cfg.Trace, spec)
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

// StageCosts returns the per-stage cost totals under the active partition.
func (t *Trainer) StageCosts() []float64 { return t.part.StageCosts(t.groupCosts) }

// StageImbalance returns max/mean of the per-stage costs — 1.0 is a
// perfectly balanced pipeline; the bottleneck stage caps the concurrent
// engine's overlap at mean/max of ideal.
func (t *Trainer) StageImbalance() float64 { return pipeline.Imbalance(t.StageCosts()) }

// StageMemory is what one stage's weight state holds on this trainer, in
// scalars: the live masters, the version ring's buffers, the optimizer
// moments this replica keeps, and T2's δ, corrected weights and recompute
// buffer.
type StageMemory struct {
	Masters, Ring, Moments, T2 int
}

// WeightMemory measures each stage's weight state, the trainer's side of
// the paper's weight+optimizer memory column. The ring counts the
// versions it holds now: once it has filled, Clock.Keep of them under an
// asynchronous method and 1 under GPipe (fewer before, and until its next
// pushes a restored ring of another length).
func (t *Trainer) WeightMemory() []StageMemory {
	size := func(ts []*tensor.Tensor) (n int) {
		for _, x := range ts {
			n += x.Size()
		}
		return n
	}
	shard := t.opt.StateRange()
	out := make([]StageMemory, t.clock.P)
	for s := range out {
		lo, hi := t.stageLo[s], t.stageHi[s]
		m := &out[s]
		m.Masters = size(t.masters[lo:hi])
		_, ring := t.store.History(s)
		for _, snap := range ring {
			m.Ring += size(snap)
		}
		for i := max(lo, shard.Lo); i < min(hi, shard.Hi); i++ {
			m.Moments += size(t.opt.MomentTensors(i))
		}
		if t.delta != nil {
			m.T2 = size(t.delta[lo:hi]) + size(t.corrected[lo:hi])
			if t.recomp != nil {
				m.T2 += size(t.recomp[lo:hi])
			}
		}
	}
	return out
}

// ArenaMemory is what one pooled machine's tape arenas hold, in bytes:
// the forward's activations and scratch, the backward's temporaries (one
// window of a few weight groups, nn.Program.BackwardRange) and the two
// carry arenas that hold the gradients live across the window's rewinds.
type ArenaMemory struct {
	Forward, Backward, Carry int
}

// ArenaMemory measures the tape arenas of the machines the trainer pools
// for the microbatches in flight, one row per machine: the trainer's side
// of the paper's activation memory column, beside WeightMemory's weight
// column. Call it between runs, when every machine is back in the pool.
func (t *Trainer) ArenaMemory() []ArenaMemory {
	t.flowMu.Lock()
	defer t.flowMu.Unlock()
	out := make([]ArenaMemory, len(t.freeFlows))
	for i, fl := range t.freeFlows {
		out[i].Forward, out[i].Backward, out[i].Carry = fl.m.ArenaBytes()
	}
	return out
}

// Engine returns the execution engine driving this trainer.
func (t *Trainer) Engine() engine.Engine { return t.cfg.Engine }

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
